package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// sampleCut returns the CUT of a two-instance checkpoint: instance 0 a
// linked log, a liveness section and a dump, instance 1 nothing, and an
// appmeta section.
func sampleCut(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	live := bytes.Repeat([]byte("seed"), 64)
	if err := os.WriteFile(path, live, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Create(faultfs.OS, dir, Header{Pattern: 2, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	c0 := w.Begin(0, nil, "")
	err = c0.Link("x.log", 9, path, int64(len(live)), binio.Checksum(live), false)
	if err == nil {
		err = c0.Put(KindLive, EncodeLiveness([]SegLive{{ID: 3, Entries: 9, Bits: []byte{0x80, 0x01}}}))
	}
	if err == nil {
		err = c0.Stream(KindDump, func(emit func([]byte)) error {
			emit([]byte("row-1"))
			emit([]byte("row-2"))
			return nil
		})
	}
	if err == nil {
		_, err = c0.Finish()
	}
	if err == nil {
		_, err = w.Begin(1, nil, "").Finish()
	}
	if err == nil {
		err = w.Put(AppMeta, binio.AppendRecord(nil, []byte("meta")))
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, CutName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reencode rebuilds the file c was decoded from b out of its parts, as
// the Writer writes them.
func reencode(c *CutFile, b []byte) []byte {
	out := c.Header.encode()
	for _, s := range c.Sections {
		out = append(out, b[s.Off:s.Off+s.Len]...)
	}
	at := len(out)
	out = append(out, encodeTable(c.Sections)...)
	return binio.PutUint64(out, uint64(at))
}

// FuzzDecodeCut feeds the CUT decoder arbitrary bytes: it must never
// panic, fail only with ErrBadCut, and whatever it accepts must be exactly
// what the Writer writes for the header and sections it returns, with a
// decoded files section for every instance. Besides the seeds added here,
// testdata/fuzz/FuzzDecodeCut holds a two-instance cut's CUT and the
// MANIFEST of the layout before it.
func FuzzDecodeCut(f *testing.F) {
	b := sampleCut(f)
	f.Add(b)
	f.Add(b[:len(b)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCut(b)
		if err != nil {
			if !errors.Is(err, ErrBadCut) {
				t.Fatalf("error %v is not ErrBadCut", err)
			}
			return
		}
		if again := reencode(c, b); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes to %x", b, again)
		}
		if len(c.Files) != c.Instances {
			t.Fatalf("%d instances, %d files sections", c.Instances, len(c.Files))
		}
	})
}

// TestV1CutIsRejected: a CUT of an earlier layout fails its decode for
// the header's magic — v1, whose dump chunks hold raw records, so its dump
// never reaches Replay; v2, whose header still names a parent; and v3,
// whose header counts the chain depth of a checkpoint whose files may be
// lists of pieces. Each old header, written as its layout wrote it with an
// empty parent and depth 2, heads this layout's sections and table.
func TestV1CutIsRejected(t *testing.T) {
	b := sampleCut(t)
	c, err := DecodeCut(b)
	if err != nil {
		t.Fatal(err)
	}
	hn := len(c.Header.encode())
	for _, magic := range []string{"flowkv-cut-v1", "flowkv-cut-v2", "flowkv-cut-v3"} {
		p := binio.PutString(nil, magic)
		p = binio.PutUvarint(binio.PutUvarint(p, uint64(c.Pattern)), uint64(c.Instances))
		if magic != "flowkv-cut-v3" {
			p = binio.PutString(p, "")
		}
		oldHeader := binio.AppendRecord(nil, binio.PutUvarint(p, 2))
		old := append(oldHeader, b[hn:]...)
		if _, err := DecodeCut(old); !errors.Is(err, ErrBadCut) || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("a %s CUT: %v, want ErrBadCut for its magic", magic, err)
		}
	}
}

// TestDecodeCutRejects: every truncation and every single bit flip of a
// CUT fails typed — its frames and its table's checksums cover every
// byte — and so do a CUT naming more instances than it has files
// sections and one of another layout.
func TestDecodeCutRejects(t *testing.T) {
	b := sampleCut(t)
	c, err := DecodeCut(b)
	if err != nil || c.Instances != 2 || len(c.Files) != 2 || len(c.Files[0].Files) != 1 {
		t.Fatalf("sample decodes to %+v, %v", c, err)
	}
	if meta, ok, err := c.Record(AppMeta); !ok || err != nil || string(meta) != "meta" {
		t.Fatalf("appmeta = %q, %v, %v", meta, ok, err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeCut(b[:n]); !errors.Is(err, ErrBadCut) {
			t.Fatalf("truncation to %d of %d bytes: %v", n, len(b), err)
		}
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(b)
			flipped[i] ^= 1 << bit
			if _, err := DecodeCut(flipped); !errors.Is(err, ErrBadCut) {
				t.Fatalf("bit %d of byte %d flipped: %v", bit, i, err)
			}
		}
	}
	dir := t.TempDir()
	w, err := Create(faultfs.OS, dir, Header{Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Begin(i, nil, "").Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := ReadCut(faultfs.OS, dir); !errors.Is(err, ErrBadCut) {
		t.Fatalf("three instances over two files sections: %+v, %v", c, err)
	}
	old := binio.AppendRecord(nil, binio.PutString(nil, "flowkv-checkpoint-v2"))
	if _, err := DecodeCut(old); !errors.Is(err, ErrBadCut) {
		t.Fatalf("a MANIFEST: %v", err)
	}
}
