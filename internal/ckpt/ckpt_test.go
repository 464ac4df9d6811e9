package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

func sampleMeta() *Meta {
	return &Meta{CutID: 0xfeedface, Files: []FileState{
		{Logical: "data.log", Epoch: 7, Segments: []Segment{
			{Name: "data.log.seg-000000000000", Len: 4096, CRC: 0xdeadbeef},
			{Name: "data.log.seg-000000004096", Len: 17, CRC: 1},
		}},
		{Logical: "index.log", Epoch: 7},
		{Logical: "stat.dlt", Epoch: 1 << 63, Segments: []Segment{{Name: "stat.dlt.seg-000000000000", Len: 1, CRC: 0}}},
	}}
}

func TestMetaRoundTrip(t *testing.T) {
	want := sampleMeta()
	got, err := DecodeMeta(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if n := got.File("data.log").TotalLen(); n != 4096+17 {
		t.Errorf("TotalLen = %d", n)
	}
	if got.File("nope") != nil || (*Meta)(nil).File("data.log") != nil {
		t.Error("File invented a logical file")
	}
}

func TestDecodeMetaRejects(t *testing.T) {
	enc := sampleMeta().Encode()
	// Truncation: a cut on a record boundary is a shorter valid meta (the
	// MANIFEST's size+CRC is what catches that); anywhere else is a torn
	// record and must be ErrBadMeta.
	for n := 0; n < len(enc); n++ {
		m, err := DecodeMeta(enc[:n])
		if err == nil {
			if len(m.Files) >= len(sampleMeta().Files) {
				t.Fatalf("truncation to %d of %d bytes decoded every file", n, len(enc))
			}
			continue
		}
		if !errors.Is(err, ErrBadMeta) {
			t.Fatalf("truncation to %d bytes: %v, want ErrBadMeta", n, err)
		}
	}
	// Every record is CRC-framed: no single bit flip may decode.
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			b := bytes.Clone(enc)
			b[i] ^= 1 << bit
			if _, err := DecodeMeta(b); !errors.Is(err, ErrBadMeta) {
				t.Fatalf("bit %d of byte %d flipped: err = %v, want ErrBadMeta", bit, i, err)
			}
		}
	}
	wrong := binio.AppendRecord(nil, binio.PutUvarint(binio.PutString(nil, "flowkv-segments-v0"), 1))
	if _, err := DecodeMeta(wrong); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("wrong magic: %v, want ErrBadMeta", err)
	}
}

// nolinkFS refuses hard links, like a checkpoint target on another device.
type nolinkFS struct{ faultfs.FS }

func (nolinkFS) Link(oldpath, newpath string) error { return errors.New("nolink") }

// cutLog takes one cut of the live file at path into a fresh directory
// against parent, and checks the result restores to the live bytes.
func cutLog(t *testing.T, fsys faultfs.FS, path string, epoch uint64, parent *Meta, parentDir string) (*Meta, *Result, string) {
	t.Helper()
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cut")
	cut, err := Begin(fsys, dir, parent, parentDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.Log("x.log", epoch, path, int64(len(live))); err != nil {
		t.Fatal(err)
	}
	res, err := cut.Finish()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.CutID != cut.ID() || meta.CutID == 0 {
		t.Fatalf("SEGMENTS cut id %d, cut says %d", meta.CutID, cut.ID())
	}
	out := filepath.Join(t.TempDir(), "restored")
	if err := Materialize(fsys, dir, meta.File("x.log"), out); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, live) {
		t.Fatalf("Materialize gave %d bytes, live file has %d", len(got), len(live))
	}
	// Every file in the directory is manifested, and everything written
	// (not linked) is queued for the sync window.
	ents, _ := os.ReadDir(dir)
	if len(ents) != len(res.Entries) {
		t.Fatalf("%d files on disk, %d manifest entries", len(ents), len(res.Entries))
	}
	return meta, res, dir
}

func segNames(m *Meta) []string {
	var out []string
	for _, s := range m.File("x.log").Segments {
		out = append(out, s.Name)
	}
	return out
}

func TestCutLog(t *testing.T) {
	fsys := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "x.log")
	write := func(n int) {
		t.Helper()
		if err := os.WriteFile(path, bytes.Repeat([]byte("flowkv!"), n)[:n], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const seg0, seg100 = "x.log.seg-000000000000", "x.log.seg-000000000100"

	// No parent: the whole file is one copied segment.
	write(100)
	base, res, baseDir := cutLog(t, fsys, path, 5, nil, "")
	if got := segNames(base); !reflect.DeepEqual(got, []string{seg0}) {
		t.Fatalf("base segments = %v", got)
	}
	if res.LinkedBytes != 0 || res.CopiedBytes != 100 || len(res.NeedSync) != 2 {
		t.Fatalf("base: linked %d copied %d needsync %v", res.LinkedBytes, res.CopiedBytes, res.NeedSync)
	}

	// The file grew under the same epoch: link the parent, copy the tail.
	write(130)
	child, res, childDir := cutLog(t, fsys, path, 5, base, baseDir)
	if got := segNames(child); !reflect.DeepEqual(got, []string{seg0, seg100}) {
		t.Fatalf("child segments = %v", got)
	}
	if res.LinkedBytes != 100 || res.CopiedBytes != 30 || len(res.NeedSync) != 2 {
		t.Fatalf("child: linked %d copied %d needsync %v", res.LinkedBytes, res.CopiedBytes, res.NeedSync)
	}

	// Unchanged since the parent: everything links, nothing is copied.
	same, res, _ := cutLog(t, fsys, path, 5, child, childDir)
	if got := segNames(same); !reflect.DeepEqual(got, []string{seg0, seg100}) || res.LinkedBytes != 130 || res.CopiedBytes != 0 {
		t.Fatalf("unchanged: segments %v linked %d copied %d", got, res.LinkedBytes, res.CopiedBytes)
	}

	for _, tc := range []struct {
		name   string
		size   int
		epoch  uint64
		parent *Meta
	}{
		{"epoch mismatch", 130, 6, base},
		{"parent longer than live", 60, 5, base},
		{"zero-length parent", 130, 5, &Meta{CutID: 1, Files: []FileState{{Logical: "x.log", Epoch: 5}}}},
	} {
		write(tc.size)
		m, res, _ := cutLog(t, fsys, path, tc.epoch, tc.parent, baseDir)
		if got := segNames(m); !reflect.DeepEqual(got, []string{seg0}) {
			t.Errorf("%s: segments = %v, want one full copy", tc.name, got)
		}
		if res.LinkedBytes != 0 || res.CopiedBytes != int64(tc.size) {
			t.Errorf("%s: linked %d copied %d", tc.name, res.LinkedBytes, res.CopiedBytes)
		}
	}

	// An empty live file records no segment (a zero-length one would
	// collide with the next cut's first segment name).
	write(0)
	empty, res, _ := cutLog(t, fsys, path, 5, base, baseDir)
	if got := segNames(empty); got != nil || res.CopiedBytes != 0 || res.LinkedBytes != 0 {
		t.Fatalf("empty live file: segments %v linked %d copied %d", got, res.LinkedBytes, res.CopiedBytes)
	}

	// A filesystem that refuses links: the parent's segment is copied,
	// counted as copied, and queued for the sync window with the tail.
	write(130)
	m, res, dir := cutLog(t, nolinkFS{faultfs.OS}, path, 5, base, baseDir)
	if got := segNames(m); !reflect.DeepEqual(got, []string{seg0, seg100}) {
		t.Fatalf("nolink segments = %v", got)
	}
	want := []string{filepath.Join(dir, seg0), filepath.Join(dir, seg100), filepath.Join(dir, MetaName)}
	if res.LinkedBytes != 0 || res.CopiedBytes != 130 || !reflect.DeepEqual(res.NeedSync, want) {
		t.Fatalf("nolink: linked %d copied %d needsync %v", res.LinkedBytes, res.CopiedBytes, res.NeedSync)
	}
}

// TestCutStream: a replay stream's base is one segment; an extending cut
// links it and appends its own; a cut with no records adds no segment;
// and the framed records read back in order across segments, including
// a cut large enough to go out in several chunked writes.
func TestCutStream(t *testing.T) {
	var parent *Meta
	parentDir := ""
	var want [][]byte
	for gen, n := range []int{3, 0, 40000, 2} {
		dir := filepath.Join(t.TempDir(), "cut")
		cut, err := Begin(faultfs.OS, dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		extend := parent.Extends("s.dlt", parent.cutID())
		if extend != (gen > 0) {
			t.Fatalf("gen %d: Extends = %v", gen, extend)
		}
		err = cut.Stream("s.dlt", extend, func(emit func([]byte) error) error {
			for i := 0; i < n; i++ {
				rec := []byte(fmt.Sprintf("gen%d-rec%06d", gen, i))
				want = append(want, rec)
				if err := emit(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cut.Finish()
		if err != nil {
			t.Fatal(err)
		}
		meta, err := ReadMeta(faultfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		fstate := meta.File("s.dlt")
		if wantSegs := []int{1, 1, 2, 3}[gen]; len(fstate.Segments) != wantSegs {
			t.Fatalf("gen %d: %d segments, want %d", gen, len(fstate.Segments), wantSegs)
		}
		if gen > 0 && (fstate.Epoch != parent.File("s.dlt").Epoch || res.LinkedBytes != parent.File("s.dlt").TotalLen()) {
			t.Fatalf("gen %d: epoch or linked bytes do not carry the parent's stream", gen)
		}
		if parent.Extends("s.dlt", 12345) {
			t.Fatal("a parent that was not the last committed cut extends")
		}
		out := filepath.Join(t.TempDir(), "stream")
		if err := Materialize(faultfs.OS, dir, fstate, out); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(out)
		for i, rec := range want {
			got, used, err := binio.ReadRecord(b)
			if err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("gen %d record %d = %q, %v; want %q", gen, i, got, err, rec)
			}
			b = b[used:]
		}
		if len(b) != 0 {
			t.Fatalf("gen %d: %d trailing bytes", gen, len(b))
		}
		parent, parentDir = meta, dir
	}
}

func (m *Meta) cutID() uint64 {
	if m == nil {
		return 0
	}
	return m.CutID
}

func TestMaterializeLengthMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s"), []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	fstate := &FileState{Logical: "x", Segments: []Segment{{Name: "s", Len: 6}}}
	err := Materialize(faultfs.OS, dir, fstate, filepath.Join(dir, "out"))
	if !errors.Is(err, ErrBadMeta) {
		t.Fatalf("short segment: %v, want ErrBadMeta", err)
	}
}

func TestReadMetaMissingIsAnError(t *testing.T) {
	if m, err := ReadMeta(faultfs.OS, t.TempDir()); err == nil {
		t.Fatalf("directory without SEGMENTS read as %+v", m)
	}
}

// FuzzDecodeMeta: DecodeMeta never panics and fails only with ErrBadMeta;
// whatever it accepts re-encodes to something it accepts again.
func FuzzDecodeMeta(f *testing.F) {
	// Seed with the SEGMENTS file of a real two-generation cut.
	path := filepath.Join(f.TempDir(), "x.log")
	if err := os.WriteFile(path, bytes.Repeat([]byte("seed"), 64), 0o644); err != nil {
		f.Fatal(err)
	}
	var parent *Meta
	parentDir := ""
	for gen, size := range []int64{100, 256} {
		dir := filepath.Join(f.TempDir(), fmt.Sprintf("cut-%d", gen))
		cut, err := Begin(faultfs.OS, dir, parent, parentDir)
		if err != nil {
			f.Fatal(err)
		}
		if err := cut.Log("x.log", 9, path, size); err != nil {
			f.Fatal(err)
		}
		if _, err := cut.Finish(); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, MetaName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if parent, err = DecodeMeta(b); err != nil {
			f.Fatal(err)
		}
		parentDir = dir
	}
	f.Add(sampleMeta().Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMeta(b)
		if err != nil {
			if !errors.Is(err, ErrBadMeta) {
				t.Fatalf("error %v is not ErrBadMeta", err)
			}
			return
		}
		again, err := DecodeMeta(m.Encode())
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encode of an accepted meta: %v", err)
		}
	})
}
