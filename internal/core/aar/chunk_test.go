package aar

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/window"
)

func decodeAll(t testing.TB, chunk []byte) ([]kvPair, int, error) {
	t.Helper()
	var got []kvPair
	keys, err := DecodeChunk(chunk, func(k []byte, vals [][]byte) {
		for _, v := range vals {
			got = append(got, kvPair{append([]byte(nil), k...), v})
		}
	})
	return got, keys, err
}

func pairs(kv ...string) []kvPair {
	var out []kvPair
	for i := 0; i < len(kv); i += 2 {
		out = append(out, kvPair{[]byte(kv[i]), []byte(kv[i+1])})
	}
	return out
}

// countPrefixed encodes entries in the earlier chunk layout: the tuple
// count, then every tuple's full key and value.
func countPrefixed(entries []kvPair) []byte {
	b := binio.PutUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		b = binio.PutBytes(binio.PutBytes(b, e.k), e.v)
	}
	return b
}

func TestChunkRoundTripSharesPrefixes(t *testing.T) {
	in := pairs("", "e", "user-17", "a", "user-17", "b", "user-170", "c", "user-18", "d")
	chunk := encodeChunk(nil, in)
	got, keys, err := decodeAll(t, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if keys != 4 || len(got) != len(in) {
		t.Fatalf("decoded %d keys, %d tuples; want 4, %d", keys, len(got), len(in))
	}
	for i := range in {
		if !bytes.Equal(got[i].k, in[i].k) || !bytes.Equal(got[i].v, in[i].v) {
			t.Fatalf("tuple %d = %q/%q, want %q/%q", i, got[i].k, got[i].v, in[i].k, in[i].v)
		}
	}
	// Each key is written once, and only past the prefix it shares.
	if old := countPrefixed(in); len(chunk) >= len(old) {
		t.Fatalf("chunk of %d bytes, count-prefixed %d", len(chunk), len(old))
	}
}

func TestDecodeChunkRejectsNonCanonical(t *testing.T) {
	good := encodeChunk(nil, pairs("ab", "1", "ac", "2"))
	// Each case is one rule broken; the keys are written as
	// shared | suffix | value count | values.
	cases := map[string][]byte{
		"empty":                     {},
		"no keys":                   {chunkTag, 0},
		"short":                     good[:len(good)-1],
		"trailing bytes":            append(append([]byte(nil), good...), 0),
		"zero values":               {chunkTag, 1, 0, 1, 'a', 0},
		"padded key count":          {chunkTag, 0x81, 0x00, 0, 1, 'a', 1, 1, 'x'},
		"key count past the bytes":  {chunkTag, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"repeated key":              {chunkTag, 2, 0, 1, 'a', 1, 1, 'x', 1, 0, 1, 1, 'y'},
		"descending keys":           {chunkTag, 2, 0, 1, 'b', 1, 1, 'x', 0, 1, 'a', 1, 1, 'y'},
		"prefix longer than key":    {chunkTag, 2, 0, 1, 'a', 1, 1, 'x', 2, 1, 'b', 1, 1, 'y'},
		"prefix not shared exactly": {chunkTag, 2, 0, 2, 'a', 'b', 1, 1, 'x', 0, 2, 'a', 'c', 1, 1, 'y'},
	}
	for name, b := range cases {
		if _, _, err := decodeAll(t, b); err == nil {
			t.Errorf("%s: %x decoded", name, b)
		} else if ce := (*ChunkError)(nil); !errors.As(err, &ce) {
			t.Errorf("%s: %v is not a *ChunkError", name, err)
		}
	}
}

// A chunk of the earlier count-prefixed layout is a typed error, never a
// misparse, whatever its tuple count; a checkpoint holding one does not
// restore.
func TestCountPrefixedChunkIsRejected(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 300} {
		var in []kvPair
		for i := 0; i < n; i++ {
			in = append(in, kvPair{[]byte("k"), []byte("v")})
		}
		_, _, err := decodeAll(t, countPrefixed(in))
		var ce *ChunkError
		if !errors.As(err, &ce) {
			t.Fatalf("%d tuples: err = %v, want a *ChunkError", n, err)
		}
	}

	w := window.Window{Start: 0, End: 100}
	name := windowFileName(w)
	seg := binio.AppendRecord(nil, countPrefixed(pairs("k1", "a", "k2", "b")))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckpt.SegmentName(name, 0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := &ckpt.Meta{Files: []ckpt.FileState{{Logical: name, Epoch: 1,
		Segments: []ckpt.Segment{{Name: ckpt.SegmentName(name, 0), Len: int64(len(seg)), CRC: binio.Checksum(seg)}}}}}
	if err := ckpttest.Write(dir, meta, nil); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{})
	err := s.restoreFrom(dir)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("restore of a count-prefixed window log: %v, want a *ChunkError", err)
	}
}

func FuzzDecodeAARChunk(f *testing.F) {
	f.Add(encodeChunk(nil, pairs("k", "v")))
	f.Add(encodeChunk(nil, pairs("", "", "a", "1", "a", "2", "ab", "3", "b", "4")))
	f.Add(encodeChunk(nil, pairs("user-0001", "x", "user-0002", "y", "user-0100", "z")))
	f.Add(countPrefixed(pairs("k1", "a", "k2", "b")))
	f.Add([]byte{chunkTag, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, keys, err := decodeAll(t, b)
		if err != nil {
			var ce *ChunkError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if re := encodeChunk(nil, got); !bytes.Equal(re, b) {
			t.Fatalf("accepted %x re-encodes as %x", b, re)
		}
		distinct := 0
		for i := range got {
			if i == 0 || !bytes.Equal(got[i].k, got[i-1].k) {
				distinct++
			}
		}
		if distinct != keys {
			t.Fatalf("reported %d keys, decoded %d", keys, distinct)
		}
	})
}

// sortByKey agrees with a stable comparison sort, keys that tie on their
// first eight bytes included.
func TestSortByKeyIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stems := []string{"", "a", "ab", "ab\x00", "abcdefgh", "abcdefgh\x00", "abcdefghij", "abcdefghia", "zz"}
	for _, n := range []int{0, 1, 2, 50, 3000} {
		var in []kvPair
		for i := 0; i < n; i++ {
			k := stems[rng.Intn(len(stems))]
			if rng.Intn(2) == 0 {
				k = fmt.Sprint(rng.Intn(n + 1))
			}
			in = append(in, kvPair{[]byte(k), []byte(fmt.Sprint(i))})
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(x, y kvPair) int { return bytes.Compare(x.k, y.k) })
		sortByKey(in)
		for i := range want {
			if !bytes.Equal(in[i].k, want[i].k) || !bytes.Equal(in[i].v, want[i].v) {
				t.Fatalf("n=%d: entry %d = %q/%s, want %q/%s", n, i, in[i].k, in[i].v, want[i].k, want[i].v)
			}
		}
	}
}
