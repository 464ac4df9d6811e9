package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
)

func sampleMeta() *Meta {
	return &Meta{Files: []FileState{
		{Logical: "data.log", Epoch: 7, Len: 4096, CRC: 0xdeadbeef},
		{Logical: "index.log", Epoch: 7},
		{Logical: "stat.dlt", Epoch: 1 << 63, Len: 1, CRC: 0},
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
	if f := got.File("data.log"); f == nil || f.Len != 4096 {
		t.Errorf("File(data.log) = %+v", f)
	}
	if got.File("nope") != nil || (*Meta)(nil).File("data.log") != nil {
		t.Error("File invented a logical file")
	}
}

func TestDecodeMetaRejects(t *testing.T) {
	enc := sampleMeta().Encode()
	// Truncation: a cut on a record boundary is a shorter valid meta (the
	// CUT's section CRC is what catches that); anywhere else is a torn
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
	// The v1 header carried a cut id after its magic: a v1 files section,
	// and this magic with a trailing cut id, are rejected. So is a v2
	// section, which described a file as a list of segments.
	for _, magic := range []string{"flowkv-segments-v1", metaMagic} {
		v1 := binio.AppendRecord(nil, binio.PutUvarint(binio.PutString(nil, magic), 0xfeedface))
		if _, err := DecodeMeta(v1); !errors.Is(err, ErrBadMeta) {
			t.Fatalf("%s header with a cut id: %v, want ErrBadMeta", magic, err)
		}
	}
	v2 := append(binio.AppendRecord(nil, binio.PutString(nil, "flowkv-segments-v2")), enc[len(binio.AppendRecord(nil, binio.PutString(nil, metaMagic))):]...)
	if _, err := DecodeMeta(v2); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("a v2 files section: %v, want ErrBadMeta", err)
	}
}

// TestDecodeMetaRejectsDuplicateFile: a files section naming one logical
// file twice is not one the encoder writes, and Meta.File would silently
// answer with the first: it fails with ErrBadMeta, whichever the epochs.
func TestDecodeMetaRejectsDuplicateFile(t *testing.T) {
	for _, second := range []FileState{
		{Logical: "data.log", Epoch: 7, Len: 4096, CRC: 0xdeadbeef},
		{Logical: "data.log", Epoch: 8, Len: 12, CRC: 1},
	} {
		m := sampleMeta()
		m.Files = append(m.Files, second)
		if got, err := DecodeMeta(m.Encode()); !errors.Is(err, ErrBadMeta) {
			t.Fatalf("data.log named twice (second %+v): %+v, %v; want ErrBadMeta", second, got, err)
		}
	}
}

// nolinkFS refuses hard links, like a checkpoint target on another device.
type nolinkFS struct{ faultfs.FS }

func (nolinkFS) Link(oldpath, newpath string) error { return errors.New("nolink") }

// oneCut writes a one-instance checkpoint into a fresh directory: what fn
// records through instance 0's cut against parent, rooted at parentDir. It
// returns the decoded CUT, the cut's Result and the directory.
func oneCut(t testing.TB, fsys faultfs.FS, parent *Meta, parentDir string, fn func(*Cut) error) (*CutFile, *Result, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cut")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Create(fsys, dir, Header{Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	cut := w.Begin(0, parent, parentDir)
	err = fn(cut)
	var res *Result
	if err == nil {
		res, err = cut.Finish()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadCut(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c, res, dir
}

// linkCut takes one cut linking the live file at path, sealed at its size
// and whose bytes durable says are on disk, into a fresh directory against
// parent, and checks the checkpoint holds it whole and nothing else.
func linkCut(t *testing.T, fsys faultfs.FS, path string, epoch uint64, durable bool, parent *Meta, parentDir string) (*Meta, *Result, string) {
	t.Helper()
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, res, dir := oneCut(t, fsys, parent, parentDir, func(cut *Cut) error {
		return cut.Link("x.log", epoch, path, int64(len(live)), binio.Checksum(live), durable)
	})
	meta := c.Files[0]
	want := FileState{Logical: "x.log", Epoch: epoch, Len: int64(len(live)), CRC: binio.Checksum(live)}
	if f := meta.File("x.log"); f == nil || *f != want {
		t.Fatalf("files section holds %+v, want %+v", f, want)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, FileName(0, "x.log"))); !bytes.Equal(got, live) {
		t.Fatalf("the checkpoint's file holds %d bytes, the live file %d", len(got), len(live))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("%d files on disk, want the CUT and x.log", len(ents))
	}
	return meta, res, dir
}

// sameInode reports whether the files at a and b are one inode.
func sameInode(t *testing.T, a, b string) bool {
	t.Helper()
	ia, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(ia, ib)
}

// TestCutLink: a cut links a sealed file whole and copies none of it —
// from the live directory, joining the sync window unless its bytes are
// durable, or from a parent holding the same file (epoch, length and CRC),
// whose link is durable; a filesystem that refuses links gets a copy,
// counted as copied and synced.
func TestCutLink(t *testing.T) {
	fsys := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "x.log")
	write := func(n int) {
		t.Helper()
		if err := os.WriteFile(path, bytes.Repeat([]byte("flowkv!"), n)[:n], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(100)
	for _, durable := range []bool{false, true} {
		_, res, dir := linkCut(t, fsys, path, 5, durable, nil, "")
		if res.LinkedBytes != 100 || res.CopiedBytes != 0 || len(res.NeedSync) != map[bool]int{false: 1, true: 0}[durable] {
			t.Fatalf("durable=%v: linked %d copied %d needsync %v", durable, res.LinkedBytes, res.CopiedBytes, res.NeedSync)
		}
		if !sameInode(t, path, filepath.Join(dir, FileName(0, "x.log"))) {
			t.Fatalf("durable=%v: the checkpoint's file is not the live inode", durable)
		}
	}

	// The parent holds the same file: linked from there, durable.
	base, _, baseDir := linkCut(t, fsys, path, 5, false, nil, "")
	write(100) // a new inode of the same bytes
	_, res, dir := linkCut(t, fsys, path, 5, false, base, baseDir)
	if res.LinkedBytes != 100 || res.CopiedBytes != 0 || len(res.NeedSync) != 0 {
		t.Fatalf("from the parent: linked %d copied %d needsync %v", res.LinkedBytes, res.CopiedBytes, res.NeedSync)
	}
	if !sameInode(t, filepath.Join(baseDir, FileName(0, "x.log")), filepath.Join(dir, FileName(0, "x.log"))) {
		t.Fatal("not linked from the parent")
	}

	// Another epoch, length or CRC is another file: linked from live.
	for _, tc := range []struct {
		name  string
		size  int
		epoch uint64
	}{
		{"epoch mismatch", 100, 6},
		{"length mismatch", 60, 5},
	} {
		write(tc.size)
		_, res, dir := linkCut(t, fsys, path, tc.epoch, false, base, baseDir)
		if len(res.NeedSync) != 1 || !sameInode(t, path, filepath.Join(dir, FileName(0, "x.log"))) {
			t.Errorf("%s: needsync %v, or not linked from the live file", tc.name, res.NeedSync)
		}
	}
	if err := os.WriteFile(path, bytes.Repeat([]byte("?"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, res, _ := linkCut(t, fsys, path, 5, false, base, baseDir); len(res.NeedSync) != 1 {
		t.Errorf("CRC mismatch: needsync %v, want the live link", res.NeedSync)
	}

	// A filesystem that refuses links: the file is copied, counted as
	// copied, and queued for the sync window.
	write(100)
	_, res, dir = linkCut(t, nolinkFS{faultfs.OS}, path, 5, true, base, baseDir)
	want := []string{filepath.Join(dir, FileName(0, "x.log"))}
	if res.LinkedBytes != 0 || res.CopiedBytes != 100 || !reflect.DeepEqual(res.NeedSync, want) {
		t.Fatalf("nolink: linked %d copied %d needsync %v", res.LinkedBytes, res.CopiedBytes, res.NeedSync)
	}
}

// streamCut writes a one-instance checkpoint whose dump section is the
// records fn emits.
func streamCut(t *testing.T, fn func(emit func([]byte))) (*CutFile, *Result, string) {
	t.Helper()
	return oneCut(t, faultfs.OS, nil, "", func(cut *Cut) error {
		return cut.Stream(KindDump, func(emit func([]byte)) error {
			fn(emit)
			return nil
		})
	})
}

// TestCutStream: a replay stream is one section written whole at every
// cut, counted as copied; a cut with no records has an empty section; and
// the framed records read back in order, including a cut large enough to
// go out in several blocks.
func TestCutStream(t *testing.T) {
	for gen, n := range []int{3, 0, 40000, 2} {
		var want [][]byte
		c, res, dir := streamCut(t, func(emit func([]byte)) {
			for i := 0; i < n; i++ {
				rec := []byte(fmt.Sprintf("gen%d-rec%06d", gen, i))
				want = append(want, rec)
				emit(rec)
			}
		})
		b, ok := c.Section(InstPrefix(0) + KindDump)
		if !ok || (len(b) == 0) != (n == 0) || res.CopiedBytes != int64(len(b)) || res.LinkedBytes != 0 {
			t.Fatalf("gen %d: section of %d bytes (present %v), %d copied and %d linked", gen, len(b), ok, res.CopiedBytes, res.LinkedBytes)
		}
		if got := replayed(t, c.Source(dir, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("gen %d: replayed %d records, want %d in order", gen, len(got), len(want))
		}
	}
}

// replayed collects the records src's dump section replays.
func replayed(t *testing.T, src *Source) [][]byte {
	t.Helper()
	var got [][]byte
	if err := src.Replay(KindDump, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamSpansBlocks: a cut whose records outgrow one chunk is cut
// into frames that each inflate to exactly streamChunk bytes of records
// but the last, records spanning the cuts — one of them longer than two
// chunks — and Replay hands the records back in order across them.
func TestStreamSpansBlocks(t *testing.T) {
	var want [][]byte
	rng := rand.New(rand.NewSource(7))
	c, _, dir := streamCut(t, func(emit func([]byte)) {
		for total := 0; total < 3*streamChunk; {
			n := 1 + rng.Intn(3000)
			if len(want) == 100 {
				n = 2*streamChunk + 17
			}
			rec := make([]byte, n)
			rng.Read(rec[:n/4])
			want = append(want, rec)
			total += len(rec)
			emit(rec)
		}
	})
	b, _ := c.Section(InstPrefix(0) + KindDump)
	var sizes []int
	for len(b) > 0 {
		frame, n, err := binio.ReadRecord(b)
		if err != nil {
			t.Fatalf("frame %d: %v", len(sizes), err)
		}
		raw, err := binio.Inflate(nil, frame)
		if err != nil {
			t.Fatalf("frame %d: %v", len(sizes), err)
		}
		sizes = append(sizes, len(raw))
		b = b[n:]
	}
	if len(sizes) < 4 {
		t.Fatalf("%d chunks for %d records of over %d bytes", len(sizes), len(want), 3*streamChunk)
	}
	for i, n := range sizes {
		if last := i == len(sizes)-1; n > streamChunk || !last && n != streamChunk || n == 0 {
			t.Fatalf("chunk %d of %d holds %d bytes of records", i, len(sizes), n)
		}
	}
	if got := replayed(t, c.Source(dir, 0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records across %d chunks, want %d in order", len(got), len(sizes), len(want))
	}
}

// chunkFrames is a stream section built by hand: per chunk, one frame
// around the deflate stream of its bytes.
func chunkFrames(t testing.TB, chunks ...[]byte) []byte {
	t.Helper()
	var b []byte
	for _, c := range chunks {
		z, err := binio.Deflate(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		b = binio.AppendRecord(b, z)
	}
	return b
}

// replaySection replays b as instance 0's dump section.
func replaySection(b []byte, fn func(rec []byte) error) error {
	c := &CutFile{Files: []*Meta{{}}, b: b, Sections: []Section{{Name: InstPrefix(0) + KindDump, Len: int64(len(b))}}}
	return c.Source("", 0).Replay(KindDump, fn)
}

// TestReplayRejectsMisshapenChunks: chunks Stream never writes — one
// that inflates past streamChunk, a short one before the last, an empty
// one, one that is not a deflate stream, a section ending mid-record — fail
// the replay with a FrameError.
func TestReplayRejectsMisshapenChunks(t *testing.T) {
	rec := binio.PutBytes(nil, []byte("record!")) // 8 bytes: a chunk holds whole ones
	full := bytes.Repeat(rec, streamChunk/len(rec))
	cases := map[string][]byte{
		"chunk past the cap": chunkFrames(t, append(bytes.Clone(full), rec...)),
		"short chunk first":  chunkFrames(t, rec, rec),
		"empty chunk":        chunkFrames(t, nil),
		"not deflated":       binio.AppendRecord(nil, rec),
		"ends mid-record":    chunkFrames(t, rec[:3]),
	}
	for name, b := range cases {
		var fe *binio.FrameError
		if err := replaySection(b, func([]byte) error { return nil }); !errors.As(err, &fe) {
			t.Errorf("%s: %v, want a FrameError", name, err)
		}
	}
	var n int
	if err := replaySection(chunkFrames(t, full, rec), func([]byte) error { n++; return nil }); err != nil || n == 0 {
		t.Fatalf("a full chunk then a short one: %d records, %v", n, err)
	}
}

// FuzzReplay feeds Source.Replay arbitrary dump sections: it must never
// panic, fail only with a FrameError, hand fn no record longer than the
// bytes the section's chunks may inflate to, and allocate no more than a
// small multiple of that — a chunk inflates to at most streamChunk bytes,
// whatever its deflate stream claims. The records of an accepted section
// stream back to a section that replays to the same records.
func FuzzReplay(f *testing.F) {
	rec := binio.PutBytes(nil, []byte("record!")) // 8 bytes: a chunk holds whole ones
	full := bytes.Repeat(rec, streamChunk/len(rec))
	f.Add([]byte{})
	f.Add(chunkFrames(f, rec))
	f.Add(chunkFrames(f, full, rec))
	f.Add(chunkFrames(f, append(bytes.Clone(full), rec...)))
	f.Add(chunkFrames(f, rec, rec))
	f.Add(chunkFrames(f, rec[:3]))
	f.Add(chunkFrames(f, binio.PutUvarint(nil, 1<<40)))
	f.Add(binio.AppendRecord(nil, rec))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		frames := 0
		for rest := b; len(rest) > 0; frames++ {
			_, n, err := binio.ReadRecord(rest)
			if err != nil {
				break
			}
			rest = rest[n:]
		}
		bound := uint64(frames) * streamChunk
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := replaySection(b, func(rec []byte) error {
			if uint64(len(rec)) > bound {
				t.Fatalf("a %d-byte record from %d chunks", len(rec), frames)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		// Inflated chunks and a spanning record's bytes, each buffer grown
		// by doubling, and a deflate reader a chunk.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*bound+64<<10 {
			t.Fatalf("replaying %d chunks allocated %d bytes", frames, alloc)
		}
		if err != nil {
			var fe *binio.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FrameError", err)
			}
			return
		}
		var got [][]byte
		if err := replaySection(b, func(rec []byte) error {
			got = append(got, bytes.Clone(rec))
			return nil
		}); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		c, _, dir := streamCut(t, func(emit func([]byte)) {
			for _, rec := range got {
				emit(rec)
			}
		})
		if again := replayed(t, c.Source(dir, 0)); len(again) != len(got) || len(got) > 0 && !reflect.DeepEqual(again, got) {
			t.Fatalf("accepted %d records, which stream back to %d", len(got), len(again))
		}
	})
}

// TestReplayRejectsDamage: a flipped bit, a zeroed page and a section cut
// mid-block each fail the CUT's checksum of the section, and stop a
// replay of the damaged bytes with a typed FrameError — never a shorter
// stream.
func TestReplayRejectsDamage(t *testing.T) {
	c, _, dir := streamCut(t, func(emit func([]byte)) {
		for i := 0; i < 8000; i++ {
			emit([]byte(fmt.Sprintf("record-%05d", i)))
		}
	})
	path := filepath.Join(dir, CutName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := c.Sections[slices.IndexFunc(c.Sections, func(s Section) bool { return s.Name == InstPrefix(0)+KindDump })]
	if sec.Len < 3*4096 {
		t.Fatalf("dump section of %d bytes", sec.Len)
	}
	damage := map[string]func([]byte) []byte{
		"bit flip":    func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"zeroed page": func(b []byte) []byte { copy(b[4096:8192], make([]byte, 4096)); return b },
		"zeroed tail": func(b []byte) []byte { copy(b[len(b)-4096:], make([]byte, 4096)); return b },
		"cut short":   func(b []byte) []byte { return b[:len(b)-100] },
	}
	for name, rot := range damage {
		b := rot(bytes.Clone(clean[sec.Off : sec.Off+sec.Len]))
		var fe *binio.FrameError
		if len(b) == int(sec.Len) {
			// The same rot in the file fails the CUT's decode.
			file := bytes.Clone(clean)
			copy(file[sec.Off:], b)
			if _, err := DecodeCut(file); !errors.As(err, &fe) || !errors.Is(err, ErrBadCut) {
				t.Errorf("%s: DecodeCut = %v, want an ErrBadCut wrapping a FrameError", name, err)
			}
		}
		bad := &CutFile{Files: c.Files, b: b, Sections: []Section{{Name: sec.Name, Len: int64(len(b))}}}
		err := bad.Source(dir, 0).Replay(KindDump, func([]byte) error { return nil })
		if !errors.As(err, &fe) {
			t.Errorf("%s: Replay = %v, want a FrameError", name, err)
		}
	}
}

// TestRestoreLengthMismatch: a checkpoint's file whose length is not the
// files section's fails its restore with ErrBadMeta, linked or copied.
func TestRestoreLengthMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, _, dir := oneCut(t, faultfs.OS, nil, "", func(cut *Cut) error {
		return cut.Link("x.log", 1, path, 6, 0, true)
	})
	for _, fsys := range []faultfs.FS{faultfs.OS, nolinkFS{faultfs.OS}} {
		d, err := logfile.OpenDirFS(fsys, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		f := c.Files[0].File("x.log")
		err = c.Source(dir, 0).Restore(fsys, f, filepath.Join(d.Root(), "x.log"), func() (*logfile.Log, error) {
			return d.OpenSealed("x.log", f.CRC)
		})
		if !errors.Is(err, ErrBadMeta) {
			t.Fatalf("a 5-byte file the section says is 6: %v, want ErrBadMeta", err)
		}
	}
}

func TestReadCutMissingIsAnError(t *testing.T) {
	if c, err := ReadCut(faultfs.OS, t.TempDir()); err == nil {
		t.Fatalf("directory without a CUT read as %+v", c)
	}
}

// FuzzDecodeMeta: DecodeMeta never panics and fails only with ErrBadMeta;
// whatever it accepts re-encodes to something it accepts again. Besides
// the seeds added here, testdata/fuzz/FuzzDecodeMeta holds the files
// section of an AUR store's cut (segment logs, each one file) and a v1
// header, which carried a cut id.
func FuzzDecodeMeta(f *testing.F) {
	// Seed with the files sections of a two-generation cut.
	path := filepath.Join(f.TempDir(), "x.log")
	b := bytes.Repeat([]byte("seed"), 64)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		f.Fatal(err)
	}
	var parent *Meta
	parentDir := ""
	for range 2 {
		c, _, dir := oneCut(f, faultfs.OS, parent, parentDir, func(cut *Cut) error {
			return cut.Link("x.log", 9, path, int64(len(b)), binio.Checksum(b), false)
		})
		b, _ := c.Section(InstPrefix(0) + KindFiles)
		f.Add(b)
		parent, parentDir = c.Files[0], dir
	}
	f.Add(sampleMeta().Encode())
	f.Add([]byte{})
	dup := sampleMeta()
	dup.Files = append(dup.Files, dup.Files[0])
	f.Add(dup.Encode())
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
