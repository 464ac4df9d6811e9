package aur

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

func TestReadNonDestructive(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v1"), w, 0) // flushed
	s.Append([]byte("k"), []byte("v2"), w, 1) // flushed
	// Probe repeatedly: values must survive and stay ordered.
	for i := 0; i < 3; i++ {
		vals, err := s.Read([]byte("k"), w)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 2 || string(vals[0]) != "v1" || string(vals[1]) != "v2" {
			t.Fatalf("probe %d: %q", i, vals)
		}
	}
	// A buffered value joins the probe result without being consumed.
	bigBuf := openTest(t, Options{WriteBufferBytes: 1 << 20})
	bigBuf.Append([]byte("k"), []byte("only-buffered"), w, 0)
	vals, err := bigBuf.Read([]byte("k"), w)
	if err != nil || len(vals) != 1 || string(vals[0]) != "only-buffered" {
		t.Fatalf("buffered probe: %q %v", vals, err)
	}
	// Get after Read still consumes everything exactly once.
	got := mustGet(t, s, "k", w)
	if len(got) != 2 {
		t.Fatalf("final get: %v", got)
	}
	if got := mustGet(t, s, "k", w); got != nil {
		t.Fatalf("state survived get: %v", got)
	}
}

func TestReadMissingAndClosed(t *testing.T) {
	s := openTest(t, Options{})
	if vals, err := s.Read([]byte("none"), window.Window{Start: 1, End: 2}); err != nil || vals != nil {
		t.Fatalf("missing: %q %v", vals, err)
	}
	s.Close()
	if _, err := s.Read(nil, window.Window{}); err != ErrClosed {
		t.Errorf("closed: %v", err)
	}
}

func TestReadLoadsPrefetchAndCountsRatio(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v"), w, 0)
	if _, err := s.Read([]byte("k"), w); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.HitCount()
	if misses != 1 {
		t.Fatalf("first probe should miss: %d/%d", hits, misses)
	}
	if _, err := s.Read([]byte("k"), w); err != nil {
		t.Fatal(err)
	}
	hits, _ = s.HitCount()
	if hits != 1 {
		t.Fatalf("second probe should hit the retained prefetch: hits=%d", hits)
	}
}

func TestStoreLevelCheckpointRestore(t *testing.T) {
	src := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.1})
	w1 := window.Window{Start: 0, End: gap}
	w2 := window.Window{Start: 500, End: 500 + gap}
	for i := 0; i < 10; i++ {
		src.Append([]byte("a"), []byte(fmt.Sprintf("a%d", i)), w1, int64(i))
		src.Append([]byte("b"), []byte(fmt.Sprintf("b%d", i)), w2, int64(500+i))
	}
	// Consume a before checkpoint.
	if got := mustGet(t, src, "a", w1); len(got) != 10 {
		t.Fatal("pre-ckpt get")
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.CheckpointDelta(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{
		Dir:              filepath.Join(t.TempDir(), "restored"),
		WriteBufferBytes: 1,
		ReadBatchRatio:   0.1,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if dst.LiveStates() != 1 {
		t.Fatalf("restored LiveStates = %d, want 1 (b only)", dst.LiveStates())
	}
	if got := mustGet(t, dst, "a", w1); got != nil {
		t.Fatalf("consumed state resurrected: %v", got)
	}
	got := mustGet(t, dst, "b", w2)
	if len(got) != 10 || got[0] != "b0" || got[9] != "b9" {
		t.Fatalf("restored b = %v", got)
	}
	// Restored ETTs enable prediction again: appends update the stat row.
	if err := dst.Append([]byte("c"), []byte("v"), w2, 600); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreIntoDirtyStoreFails(t *testing.T) {
	src := openTest(t, Options{})
	src.Append([]byte("k"), []byte("v"), window.Window{Start: 0, End: gap}, 0)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.CheckpointDelta(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Append([]byte("x"), []byte("y"), window.Window{Start: 0, End: gap}, 0)
	if err := dirty.Restore(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointOnClosedStore(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if _, err := s.CheckpointDelta(t.TempDir(), nil, ""); err != ErrClosed {
		t.Errorf("Checkpoint on closed: %v", err)
	}
	if err := s.Restore(t.TempDir()); err != ErrClosed {
		t.Errorf("Restore on closed: %v", err)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v"), w, 0)
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after forced flush", s.BufferedBytes())
	}
	if n := s.DiskUsage(); n == 0 {
		t.Errorf("DiskUsage = %d", n)
	}
	mustGet(t, s, "k", w)
	if s.IndexScans() == 0 {
		t.Error("IndexScans not counted")
	}
	if s.PrefetchedBytes() != 0 {
		t.Errorf("PrefetchedBytes = %d after consuming", s.PrefetchedBytes())
	}
}

// TestStatStreamElidesBornAndConsumed chains three checkpoints: a state
// appended and consumed between two cuts adds nothing to stat.dlt, a
// state the parent holds ships its tombstone when consumed, and the
// chain restores to exactly the rows still live.
func TestStatStreamElidesBornAndConsumed(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	base := t.TempDir()
	cut := func(name string, parent *ckpt.Meta, parentDir string) (*ckpt.Meta, string) {
		t.Helper()
		dir := filepath.Join(base, name)
		res, err := s.CheckpointDelta(dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		res.Commit()
		meta, err := ckpt.ReadMeta(faultfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		return meta, dir
	}
	statSegments := func(m *ckpt.Meta) int { return len(m.File(statDeltaLogical).Segments) }

	s.Append([]byte("kept"), []byte("v"), w, 1)
	s.Append([]byte("held"), []byte("v"), w, 1)
	m1, d1 := cut("c1", nil, "")

	// Born and consumed between c1 and c2: no row, no tombstone, and with
	// nothing else dirty no segment at all.
	s.Append([]byte("brief"), []byte("v"), w, 2)
	s.Append([]byte("brief"), []byte("v"), w, 3)
	if got := mustGet(t, s, "brief", w); len(got) != 2 {
		t.Fatalf("brief = %v", got)
	}
	m2, d2 := cut("c2", m1, d1)
	if a, b := statSegments(m1), statSegments(m2); b != a {
		t.Fatalf("stat.dlt grew from %d to %d segments over state born and consumed between the cuts", a, b)
	}

	// Held by c1/c2, consumed now: the tombstone must ship.
	mustGet(t, s, "held", w)
	m3, d3 := cut("c3", m2, d2)
	if a, b := statSegments(m2), statSegments(m3); b != a+1 {
		t.Fatalf("stat.dlt has %d segments after consuming a held state, want %d", b, a+1)
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20})
	if err := dst.Restore(d3); err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	_, kept := dst.stat[id{key: "kept", w: w}]
	rows := len(dst.stat)
	dst.mu.Unlock()
	if !kept || rows != 1 {
		t.Fatalf("restored Stat table has %d rows (kept present: %v), want only kept", rows, kept)
	}
}

// TestStatStreamRebasesWhenTombstonesOutnumberCleanRows: the rebase rule
// (ckpt.Marks.BaseIsCheaper) governs stat.dlt. When
// most of the sessions the parent holds have fired by the next cut, the
// Stat table is dumped whole as a one-segment base with no tombstones
// rather than shipped as a delta longer than itself; a cut that leaves
// most rows clean extends the stream again.
func TestStatStreamRebasesWhenTombstonesOutnumberCleanRows(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	base := t.TempDir()
	var parent *ckpt.Meta
	var parentDir string
	cut := func(name string) (segments int, linked int64) {
		t.Helper()
		dir := filepath.Join(base, name)
		res, err := s.CheckpointDelta(dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		res.Commit()
		meta, err := ckpt.ReadMeta(faultfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		parent, parentDir = meta, dir
		fstate := meta.File(statDeltaLogical)
		for _, seg := range fstate.Segments[:len(fstate.Segments)-1] {
			linked += seg.Len
		}
		return len(fstate.Segments), linked
	}
	for i := 0; i < 10; i++ {
		s.Append([]byte(fmt.Sprintf("s%02d", i)), []byte("v"), w, 1)
	}
	if n, _ := cut("c1"); n != 1 {
		t.Fatalf("the first cut's stat.dlt has %d segments", n)
	}
	for i := 0; i < 8; i++ { // eight tombstones against two clean rows
		mustGet(t, s, fmt.Sprintf("s%02d", i), w)
	}
	for i := 10; i < 13; i++ {
		s.Append([]byte(fmt.Sprintf("s%02d", i)), []byte("v"), w, 2)
	}
	if n, linked := cut("c2"); n != 1 || linked != 0 {
		t.Fatalf("c2's stat.dlt has %d segments, %d bytes of them the parent's; want a one-segment base", n, linked)
	}
	s.Append([]byte("s12"), []byte("v"), w, 3) // one dirty row, four clean
	if n, linked := cut("c3"); n != 2 || linked == 0 {
		t.Fatalf("c3's stat.dlt has %d segments, %d bytes of them the parent's; want a delta on c2", n, linked)
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20})
	if err := dst.Restore(parentDir); err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if len(dst.stat) != 5 {
		t.Fatalf("restored Stat table has %d rows, want 5", len(dst.stat))
	}
	for _, k := range []string{"s08", "s09", "s10", "s11", "s12"} {
		st := dst.stat[id{key: k, w: w}]
		if want := int64(map[string]int{"s08": 1, "s09": 1, "s10": 2, "s11": 2, "s12": 3}[k]); st == nil || st.maxTS != want {
			t.Fatalf("restored row %s = %+v, want maxTS %d", k, st, want)
		}
	}
}

// TestConsumedIdentityLivesAgain: a (key, window) that was flushed and
// consumed can be appended to, flushed — into the same open head — and
// consumed again. A segment's consumed mark hides only the batches that
// were in the segment when the identity was consumed — not the ones its
// next life flushes above them — whether or not a cleaning pass (which
// seals that head and moves its neighbour out) or a checkpoint and restore
// comes in between.
func TestConsumedIdentityLivesAgain(t *testing.T) {
	w := window.Window{Start: 0, End: gap}
	opts := Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0, MaxSpaceAmplification: 1.1}
	for _, clean := range []bool{false, true} {
		for _, restore := range []string{"never", "before the second life", "after the second life"} {
			t.Run(fmt.Sprintf("cleaning=%v/restore=%s", clean, restore), func(t *testing.T) {
				s := openTest(t, opts)
				reopen := func() {
					t.Helper()
					dir := filepath.Join(t.TempDir(), "ckpt")
					if _, err := s.CheckpointDelta(dir, nil, ""); err != nil {
						t.Fatal(err)
					}
					dst := openTest(t, opts)
					if err := dst.Restore(dir); err != nil {
						t.Fatal(err)
					}
					s = dst
				}
				flush := func() {
					t.Helper()
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				s.Append([]byte("keeper"), []byte("kept"), w, 1)
				s.Append([]byte("k"), []byte("first-1"), w, 1)
				s.Append([]byte("k"), []byte("first-2"), w, 2)
				flush()
				if got := mustGet(t, s, "k", w); len(got) != 2 || got[0] != "first-1" || got[1] != "first-2" {
					t.Fatalf("first life = %v", got)
				}
				if clean {
					forceClean(t, s)
					if s.SegmentStats().Compactions != 1 {
						t.Fatalf("%d cleaning passes, want 1", s.SegmentStats().Compactions)
					}
				}
				if restore == "before the second life" {
					reopen()
				}
				s.Append([]byte("k"), []byte("second"), w, 10)
				flush()
				if restore == "after the second life" {
					reopen()
				}
				if _, onDisk, _ := s.Peek([]byte("k"), w); onDisk == 0 {
					t.Fatal("the second life is not on disk")
				}
				if got := mustGet(t, s, "k", w); len(got) != 1 || got[0] != "second" {
					t.Fatalf("second life = %v, want [second]", got)
				}
				if got := mustGet(t, s, "k", w); got != nil {
					t.Fatalf("consumed twice, read a third time: %v", got)
				}
				if got := mustGet(t, s, "keeper", w); len(got) != 1 || got[0] != "kept" {
					t.Fatalf("keeper = %v", got)
				}
			})
		}
	}
}

// TestRestoreRejectsZeroedStatPage: a zeroed page inside a stat.dlt
// segment is a typed FrameError from Restore, never a Stat table missing
// the rows the page held.
func TestRestoreRejectsZeroedStatPage(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	for i := 0; i < 2000; i++ {
		if err := s.Append([]byte(fmt.Sprintf("session-%05d", i)), []byte("v"), w, 1); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.CheckpointDelta(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	meta, err := ckpt.ReadMeta(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := meta.File(statDeltaLogical).Segments[0]
	if seg.Len < 3*4096 {
		t.Fatalf("segment of %d bytes is too small to zero an inner page", seg.Len)
	}
	if err := faultfs.CorruptAtRest(nil, filepath.Join(dir, seg.Name), faultfs.CorruptZeroPage, 4096); err != nil {
		t.Fatal(err)
	}
	var fe *binio.FrameError
	if err := openTest(t, Options{WriteBufferBytes: 1 << 20}).Restore(dir); !errors.As(err, &fe) {
		t.Fatalf("restore over a zeroed stat.dlt page: %v, want a FrameError", err)
	}
}

// pairLayoutFrame frames p as the earlier pair layout's files were framed:
// crc32c(p) | uvarint(len(p)) | p, with no marker byte.
func pairLayoutFrame(dst, p []byte) []byte {
	dst = binio.PutUint32(dst, binio.Checksum(p))
	return append(binio.PutUvarint(dst, uint64(len(p))), p...)
}

// TestRestoreRejectsPairLayout: a checkpoint of the earlier layout — each
// segment a data-NNNNNN.log / index-NNNNNN.log pair, every file framed
// without the marker byte — fails Restore with a typed *binio.FrameError
// and restores nothing, whether or not the store had spilled.
func TestRestoreRejectsPairLayout(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprintf("spilled=%v", spilled), func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, b []byte) {
				t.Helper()
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			meta := &ckpt.Meta{CutID: 1, Files: []ckpt.FileState{{Logical: statDeltaLogical, Epoch: 1}}}
			segments := uint64(0)
			if spilled {
				segments = 1
				for _, name := range []string{"data-000000.log", "index-000000.log"} {
					b := pairLayoutFrame(nil, []byte("batch"))
					seg := ckpt.SegmentName(name, 0)
					write(seg, b)
					meta.Files = append(meta.Files, ckpt.FileState{Logical: name, Epoch: 1,
						Segments: []ckpt.Segment{{Name: seg, Len: int64(len(b)), CRC: binio.Checksum(b)}}})
				}
			}
			snap := pairLayoutFrame(nil, binio.PutUvarint(nil, segments))
			if spilled {
				snap = pairLayoutFrame(snap, []byte{0, logfile.SegmentHead})
			}
			write(segmentsSnapshotName, snap)
			write(ckpt.MetaName, meta.Encode())

			s := openTest(t, Options{WriteBufferBytes: 1 << 20})
			var fe *binio.FrameError
			if err := s.Restore(dir); !errors.As(err, &fe) {
				t.Fatalf("restore of a pair-layout checkpoint: %v, want a *binio.FrameError", err)
			}
			if s.SegmentStats().LiveSegments != 0 || s.LiveStates() != 0 {
				t.Fatalf("the failed restore left %d segments and %d states", s.SegmentStats().LiveSegments, s.LiveStates())
			}
		})
	}
}
