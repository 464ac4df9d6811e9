package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

func sampleMeta() *Meta {
	return &Meta{Files: []FileState{
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
	wrong := binio.AppendRecord(nil, binio.PutString(nil, "flowkv-segments-v0"))
	if _, err := DecodeMeta(wrong); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("wrong magic: %v, want ErrBadMeta", err)
	}
	// The v1 header carried a cut id after its magic: a v1 SEGMENTS file,
	// and the v2 magic with a trailing cut id, are rejected.
	for _, magic := range []string{"flowkv-segments-v1", metaMagic} {
		v1 := binio.AppendRecord(nil, binio.PutUvarint(binio.PutString(nil, magic), 0xfeedface))
		if _, err := DecodeMeta(v1); !errors.Is(err, ErrBadMeta) {
			t.Fatalf("%s header with a cut id: %v, want ErrBadMeta", magic, err)
		}
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
		{"zero-length parent", 130, 5, &Meta{Files: []FileState{{Logical: "x.log", Epoch: 5}}}},
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

// TestCutStream: a replay stream is one segment written whole at every
// cut, whatever the parent holds; a cut with no records adds no segment;
// and the framed records read back in order, including a cut large enough
// to go out in several chunked writes.
func TestCutStream(t *testing.T) {
	var parent *Meta
	parentDir := ""
	for gen, n := range []int{3, 0, 40000, 2} {
		dir := filepath.Join(t.TempDir(), "cut")
		cut, err := Begin(faultfs.OS, dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		err = cut.Stream("s.dlt", func(emit func([]byte)) error {
			for i := 0; i < n; i++ {
				rec := []byte(fmt.Sprintf("gen%d-rec%06d", gen, i))
				want = append(want, rec)
				emit(rec)
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
		if wantSegs := min(n, 1); len(fstate.Segments) != wantSegs || res.LinkedBytes != 0 {
			t.Fatalf("gen %d: %d segments, %d bytes linked; want %d segments, none linked", gen, len(fstate.Segments), res.LinkedBytes, wantSegs)
		}
		if got := replayed(t, dir, fstate); !reflect.DeepEqual(got, want) {
			t.Fatalf("gen %d: replayed %d records, want %d in order", gen, len(got), len(want))
		}
		parent, parentDir = meta, dir
	}
}

// replayed collects the records Replay hands out for fstate.
func replayed(t *testing.T, dir string, fstate *FileState) [][]byte {
	t.Helper()
	var got [][]byte
	if err := Replay(faultfs.OS, dir, fstate, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamSpansBlocks: a cut whose records outgrow one block is sealed
// into several frames of at most streamChunk bytes of records plus the
// one that crossed the bound, and Replay hands the records back in order
// across the block boundaries.
func TestStreamSpansBlocks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cut")
	cut, err := Begin(faultfs.OS, dir, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	rng := rand.New(rand.NewSource(7))
	err = cut.Stream("s.dlt", func(emit func([]byte)) error {
		for total := 0; total < 3*streamChunk; {
			rec := bytes.Repeat([]byte{byte(len(want))}, 1+rng.Intn(3000))
			want = append(want, rec)
			total += len(rec)
			emit(rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cut.Finish(); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	fstate := meta.File("s.dlt")
	b, err := os.ReadFile(filepath.Join(dir, fstate.Segments[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for len(b) > 0 {
		block, n, err := binio.ReadRecord(b)
		if err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		if len(block) > streamChunk+3002 {
			t.Fatalf("block %d holds %d bytes of records", blocks, len(block))
		}
		b = b[n:]
		blocks++
	}
	if blocks < 3 {
		t.Fatalf("%d blocks for %d bytes of records", blocks, 3*streamChunk)
	}
	if got := replayed(t, dir, fstate); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records across %d blocks, want %d in order", len(got), blocks, len(want))
	}
}

// TestReplayRejectsDamage: a flipped bit, a zeroed page and a segment cut
// mid-block each stop the replay with a typed FrameError, never with a
// shorter stream.
func TestReplayRejectsDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cut")
	cut, err := Begin(faultfs.OS, dir, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	err = cut.Stream("s.dlt", func(emit func([]byte)) error {
		for i := 0; i < 2000; i++ {
			emit([]byte(fmt.Sprintf("record-%05d", i)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cut.Finish(); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	fstate := meta.File("s.dlt")
	path := filepath.Join(dir, fstate.Segments[0].Name)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"bit flip":    func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"zeroed page": func(b []byte) []byte { copy(b[4096:8192], make([]byte, 4096)); return b },
		"zeroed tail": func(b []byte) []byte { copy(b[len(b)-4096:], make([]byte, 4096)); return b },
		"cut short":   func(b []byte) []byte { return b[:len(b)-100] },
	}
	for name, rot := range damage {
		b := rot(append([]byte(nil), clean...))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var fe *binio.FrameError
		err := Replay(faultfs.OS, dir, fstate, func([]byte) error { return nil })
		if !errors.As(err, &fe) {
			t.Errorf("%s: Replay = %v, want a FrameError", name, err)
		}
	}
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
// whatever it accepts re-encodes to something it accepts again. Besides
// the seeds added here, testdata/fuzz/FuzzDecodeMeta holds the SEGMENTS
// file of an AUR store's cut (eleven segment logs and stat.dlt) and a v1
// header, which carried a cut id.
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
