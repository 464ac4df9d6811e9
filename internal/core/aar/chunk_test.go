package aar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/window"
)

func decodeAll(t testing.TB, chunk []byte) ([]kvPair, ChunkInfo, error) {
	t.Helper()
	var got []kvPair
	info, err := DecodeChunk(chunk, func(k []byte, vals [][]byte) {
		for _, v := range vals {
			got = append(got, kvPair{append([]byte(nil), k...), v})
		}
	})
	return got, info, err
}

// encodeChunk is one chunk holding entries, sorted by key.
func encodeChunk(entries []kvPair) []byte {
	var e chunkEncoder
	chunk, err := e.encode(nil, entries)
	if err != nil {
		panic(err)
	}
	return chunk
}

func pairs(kv ...string) []kvPair {
	var out []kvPair
	for i := 0; i < len(kv); i += 2 {
		out = append(out, kvPair{[]byte(kv[i]), []byte(kv[i+1])})
	}
	return out
}

// countPrefixed encodes entries in the first chunk layout: the tuple
// count, then every tuple's full key and value.
func countPrefixed(entries []kvPair) []byte {
	b := binio.PutUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		b = binio.PutBytes(binio.PutBytes(b, e.k), e.v)
	}
	return b
}

// rowChunk encodes sorted entries in the tag-0 row layout this one
// replaced, undeflated: the key count, then per key the prefix it shares
// with the key before, the rest of the key, its value count and values.
func rowChunk(entries []kvPair) []byte {
	var rows []byte
	keys := 0
	var prev []byte
	for i, j := 0, 1; i < len(entries); i, j = j, j+1 {
		k := entries[i].k
		for j < len(entries) && bytes.Equal(entries[j].k, k) {
			j++
		}
		p := 0
		for p < len(prev) && p < len(k) && prev[p] == k[p] {
			p++
		}
		rows = binio.PutUvarint(binio.PutBytes(binio.PutUvarint(rows, uint64(p)), k[p:]), uint64(j-i))
		for _, e := range entries[i:j] {
			rows = binio.PutBytes(rows, e.v)
		}
		keys, prev = keys+1, k
	}
	return append(binio.PutUvarint([]byte{0}, uint64(keys)), rows...)
}

// chunkOf wraps a body, well-formed or not, in a chunk: the tag, the
// body's length, its deflate stream.
func chunkOf(t testing.TB, body []byte) []byte {
	t.Helper()
	chunk, err := binio.DeflateBlocks(binio.PutUvarint([]byte{chunkTag}, uint64(len(body))), body)
	if err != nil {
		t.Fatal(err)
	}
	return chunk
}

// bodyOf lays out a chunk body: the key count, the six column lengths and
// the columns, each column given as its bytes.
func bodyOf(keys uint64, cols ...string) []byte {
	b := binio.PutUvarint(nil, keys)
	for _, c := range cols {
		b = binio.PutUvarint(b, uint64(len(c)))
	}
	for _, c := range cols {
		b = append(b, c...)
	}
	return b
}

// splitChunk splits a chunk into its tag and declared length, and the
// body its deflate stream inflates to.
func splitChunk(t testing.TB, chunk []byte) (head, body []byte) {
	t.Helper()
	_, k := binary.Uvarint(chunk[1:])
	body, err := binio.Inflate(nil, chunk[1+k:])
	if err != nil {
		t.Fatal(err)
	}
	return chunk[:1+k], body
}

func TestChunkRoundTripSharesPrefixes(t *testing.T) {
	in := pairs("", "e", "user-17", "a", "user-17", "b", "user-170", "c", "user-18", "d")
	chunk := encodeChunk(in)
	got, info, err := decodeAll(t, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if info.Keys != 4 || info.Values != len(in) || len(got) != len(in) {
		t.Fatalf("decoded %+v, %d tuples; want 4 keys, %d values", info, len(got), len(in))
	}
	for i := range in {
		if !bytes.Equal(got[i].k, in[i].k) || !bytes.Equal(got[i].v, in[i].v) {
			t.Fatalf("tuple %d = %q/%q, want %q/%q", i, got[i].k, got[i].v, in[i].k, in[i].v)
		}
	}
	// Each key is written once, and only past the prefix it shares; the
	// body is the columns, one value length a value.
	want := bodyOf(4, "\x00\x00\x07\x06", "\x00\x07\x01\x01", "user-1708", "\x01\x02\x01\x01",
		"\x01\x01\x01\x01\x01", "eabcd")
	if _, body := splitChunk(t, chunk); !bytes.Equal(body, want) || info.Decoded != len(want) {
		t.Fatalf("body %q (%d decoded), want %q", body, info.Decoded, want)
	}
}

// A Q7-shaped flush — bids keyed by about 5 000 decimal bidder ids, each
// value a varint price in 100..10 099 — costs 2.27 B a value on disk,
// frames included. The tag-0 row layout, undeflated, held the same
// chunks in 3.53 B a value; one flate.BestSpeed stream over each columnar
// body, 2.39.
func TestChunkBytesPerValueBudget(t *testing.T) {
	const values = 60_000
	rng := rand.New(rand.NewSource(7))
	s := openTest(t, Options{WriteBufferBytes: 1 << 30})
	w := window.Window{Start: 0, End: 125_000}
	for i := 0; i < values; i++ {
		key := strconv.AppendInt(nil, int64(1000+rng.Intn(5000)), 10)
		if err := s.Append(key, binio.PutVarint(nil, int64(100+rng.Intn(10_000))), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if perValue := float64(s.DiskUsage()) / values; perValue > 2.27 {
		t.Fatalf("%.3f B a value on disk, budget 2.27", perValue)
	}
}

func TestDecodeChunkRejectsNonCanonical(t *testing.T) {
	// Keys "ab" and "ac", one value each: shared | sufLen | suffix |
	// count | valLen | value.
	good := bodyOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "\x01\x01", "12")
	if got, _, err := decodeAll(t, chunkOf(t, good)); err != nil || len(got) != 2 {
		t.Fatalf("the well-formed body decodes to %q, %v", got, err)
	}
	z := chunkOf(t, good)[2:] // the deflate stream alone
	withLen := func(n int) []byte { return append(binio.PutUvarint([]byte{chunkTag}, uint64(n)), z...) }
	// Each case is one rule broken: whole records, then bodies that
	// deflate as encode would deflate them.
	records := map[string][]byte{
		"empty":                      {},
		"tag-0 row layout":           rowChunk(pairs("ab", "1", "ac", "2")),
		"count-prefixed layout":      countPrefixed(pairs("ab", "1", "ac", "2")),
		"no body length":             {chunkTag},
		"padded body length":         append([]byte{chunkTag, byte(len(good)) | 0x80, 0x00}, z...),
		"body length too short":      withLen(len(good) - 1),
		"body length too long":       withLen(len(good) + 1),
		"body length past any ratio": withLen(len(z) * 2000),
		"stream ends early":          withLen(len(good))[:len(z)],
		"bytes after the stream":     append(withLen(len(good)), 0),
		"body not deflated":          append(binio.PutUvarint([]byte{chunkTag}, uint64(len(good))), good...),
	}
	bodies := map[string][]byte{
		"column overruns the body":   good[:len(good)-1],
		"bytes past the columns":     append(slices.Clone(good), 0),
		"column bytes past the keys": bodyOf(1, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "\x01\x01", "12"),
		"suffix column ends short":   bodyOf(2, "\x00\x01", "\x02\x02", "abc", "\x01\x01", "\x01\x01", "12"),
		"value column ends short":    bodyOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "\x01\x02", "12"),
		"no keys":                    bodyOf(0, "", "", "", "", "", ""),
		"key count past the column":  bodyOf(3, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "\x01\x01", "12"),
		"padded key count":           append([]byte{0x82, 0x00}, good[1:]...),
		"padded column varint":       bodyOf(2, "\x00\x01", "\x82\x00\x01", "abc", "\x01\x01", "\x01\x01", "12"),
		"zero values":                bodyOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x00", "\x01", "1"),
		"values past the column":     bodyOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x03", "\x01\x01", "12"),
		"repeated key":               bodyOf(2, "\x00\x01", "\x01\x00", "a", "\x01\x01", "\x01\x01", "12"),
		"descending keys":            bodyOf(2, "\x00\x00", "\x01\x01", "ba", "\x01\x01", "\x01\x01", "12"),
		"prefix longer than key":     bodyOf(2, "\x00\x02", "\x01\x01", "ab", "\x01\x01", "\x01\x01", "12"),
		"prefix not maximal":         bodyOf(2, "\x00\x00", "\x02\x02", "abac", "\x01\x01", "\x01\x01", "12"),
	}
	for name, body := range bodies {
		records[name] = chunkOf(t, body)
	}
	for name, b := range records {
		if _, _, err := decodeAll(t, b); err == nil {
			t.Errorf("%s: %x decoded", name, b)
		} else if ce := (*ChunkError)(nil); !errors.As(err, &ce) {
			t.Errorf("%s: %v is not a *ChunkError", name, err)
		}
	}
}

// A record of either earlier layout is a typed error, never a misparse,
// whatever its size; a checkpoint holding a log of one does not restore.
func TestCountPrefixedChunkIsRejected(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 300} {
		var in []kvPair
		for i := 0; i < n; i++ {
			in = append(in, kvPair{[]byte(fmt.Sprint("k", i)), []byte("v")})
		}
		sortByKey(in)
		for layout, rec := range map[string][]byte{"count-prefixed": countPrefixed(in), "tag-0": rowChunk(in)} {
			var ce *ChunkError
			if _, _, err := decodeAll(t, rec); !errors.As(err, &ce) {
				t.Fatalf("%s, %d tuples: err = %v, want a *ChunkError", layout, n, err)
			}
		}
	}

	w := window.Window{Start: 0, End: 100}
	name := fileName(w, 0)
	for layout, rec := range map[string][]byte{
		"count-prefixed": countPrefixed(pairs("k1", "a", "k2", "b")),
		"tag-0":          rowChunk(pairs("k1", "a", "k2", "b")),
	} {
		seg := binio.AppendRecord(nil, rec)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckpt.FileName(0, name)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		meta := &ckpt.Meta{Files: []ckpt.FileState{{Logical: name, Epoch: 1, Len: int64(len(seg)), CRC: binio.Checksum(seg)}}}
		if err := ckpttest.Write(dir, meta, nil); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, Options{})
		err := s.restoreFrom(dir)
		var ce *ChunkError
		if !errors.As(err, &ce) {
			t.Fatalf("restore of a %s window log: %v, want a *ChunkError", layout, err)
		}
	}
}

func FuzzDecodeAARChunk(f *testing.F) {
	f.Add(encodeChunk(pairs("k", "v")))
	f.Add(encodeChunk(pairs("", "", "a", "1", "a", "2", "ab", "3", "b", "4")))
	f.Add(encodeChunk(pairs("user-0001", "x", "user-0002", "y", "user-0100", "z")))
	f.Add(rowChunk(pairs("k1", "a", "k2", "b")))
	f.Add(chunkOf(f, bodyOf(0, "", "", "", "", "", "")))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, info, err := decodeAll(t, b)
		if err != nil {
			var ce *ChunkError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		// What the deflate stream holds, not its bits, is canonical.
		re := encodeChunk(got)
		head, body := splitChunk(t, b)
		if reHead, reBody := splitChunk(t, re); !bytes.Equal(reHead, head) || !bytes.Equal(reBody, body) {
			t.Fatalf("accepted %x re-encodes as %x", b, re)
		}
		distinct := 0
		for i := range got {
			if i == 0 || !bytes.Equal(got[i].k, got[i-1].k) {
				distinct++
			}
		}
		if distinct != info.Keys || len(got) != info.Values || len(body) != info.Decoded {
			t.Fatalf("reported %+v, decoded %d keys, %d values", info, distinct, len(got))
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
