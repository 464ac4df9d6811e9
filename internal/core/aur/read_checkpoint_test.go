package aur

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
	"flowkv/internal/faultfs"
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
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
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
	if err := dst.restoreFrom(ckpt); err != nil {
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
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Append([]byte("x"), []byte("y"), window.Window{Start: 0, End: gap}, 0)
	if err := dirty.restoreFrom(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointOnClosedStore(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if _, err := s.checkpointTo(t.TempDir(), nil, ""); err != ErrClosed {
		t.Errorf("Checkpoint on closed: %v", err)
	}
	if err := s.Restore(nil); err != ErrClosed {
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

// TestStatStreamIsOneBaseOfTheOnDiskRows: every cut, with or without a
// parent, writes the Stat stream as its dump section — empty when the
// table is — whose rows are exactly the identities whose batches the cut's segments
// hold, each with its maxTS, and the cut restores to that table.
func TestStatStreamIsOneBaseOfTheOnDiskRows(t *testing.T) {
	opts := Options{WriteBufferBytes: 1 << 20, Predictor: window.SessionPredictor{Gap: gap}}
	s := openTest(t, opts)
	rng := rand.New(rand.NewSource(3))
	ident := func() id {
		start := int64(rng.Intn(3))
		return id{key: fmt.Sprintf("s%03d", rng.Intn(60)), w: window.Window{Start: start, End: start + gap}}
	}
	base := t.TempDir()
	var parent *ckpt.Meta
	var parentDir string
	for c := 0; c < 6; c++ {
		for i := 0; i < 40 && c < 5; i++ {
			k := ident()
			if err := s.Append([]byte(k.key), []byte("v"), k.w, int64(c*100+rng.Intn(100))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30 || c == 5 && s.LiveStates() > 0; i++ {
			k := ident()
			if c == 5 { // the last cut is of an empty table
				s.mu.Lock()
				for k = range s.table {
					break
				}
				s.mu.Unlock()
			}
			if _, err := s.Get([]byte(k.key), k.w); err != nil {
				t.Fatal(err)
			}
		}
		dir := filepath.Join(base, fmt.Sprintf("c%d", c))
		if _, err := s.checkpointTo(dir, parent, parentDir); err != nil {
			t.Fatal(err)
		}
		src, err := ckpttest.Source(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[id]int64)
		s.mu.Lock()
		for k, e := range s.table {
			if len(e.refs) == 0 {
				t.Fatalf("cut %d: %v is not on disk after the drain", c, k)
			}
			want[k] = e.maxTS
		}
		s.mu.Unlock()
		if b, _ := src.Section(ckpt.KindDump); (len(b) == 0) != (len(want) == 0) {
			t.Fatalf("cut %d: the Stat stream has %d bytes for %d rows", c, len(b), len(want))
		}
		rows, err := s.loadStatStream(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("cut %d: the Stat stream holds %d rows, %d identities are on disk", c, len(rows), len(want))
		}
		for k, e := range rows {
			if maxTS, ok := want[k]; !ok || e.maxTS != maxTS {
				t.Fatalf("cut %d: Stat row %v has maxTS %d; on disk %v with maxTS %d", c, k, e.maxTS, ok, maxTS)
			}
		}
		dst := openTest(t, opts)
		if err := dst.restoreFrom(dir); err != nil {
			t.Fatal(err)
		}
		if dst.LiveStates() != len(want) {
			t.Fatalf("cut %d restored %d states, want %d", c, dst.LiveStates(), len(want))
		}
		parent, parentDir = src.Meta, dir
	}
}

// TestStatStreamElidesBornAndConsumed chains three checkpoints: a state
// appended and consumed between two cuts leaves no row in the Stat stream,
// a state the parent holds leaves none once consumed, and the chain
// restores to exactly the rows still live.
func TestStatStreamElidesBornAndConsumed(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	base := t.TempDir()
	cut := func(name string, parent *ckpt.Meta, parentDir string) (*ckpt.Meta, string) {
		t.Helper()
		dir := filepath.Join(base, name)
		if _, err := s.checkpointTo(dir, parent, parentDir); err != nil {
			t.Fatal(err)
		}
		meta, err := ckpttest.Meta(dir)
		if err != nil {
			t.Fatal(err)
		}
		return meta, dir
	}
	rowsOf := func(_ *ckpt.Meta, dir string) map[id]*entry {
		t.Helper()
		src, err := ckpttest.Source(dir)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.loadStatStream(src)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	s.Append([]byte("kept"), []byte("v"), w, 1)
	s.Append([]byte("held"), []byte("v"), w, 1)
	m1, d1 := cut("c1", nil, "")
	if rows := rowsOf(m1, d1); len(rows) != 2 {
		t.Fatalf("c1's Stat stream holds %d rows, want kept and held", len(rows))
	}

	// Born and consumed between c1 and c2: no row.
	s.Append([]byte("brief"), []byte("v"), w, 2)
	s.Append([]byte("brief"), []byte("v"), w, 3)
	if got := mustGet(t, s, "brief", w); len(got) != 2 {
		t.Fatalf("brief = %v", got)
	}
	m2, d2 := cut("c2", m1, d1)
	if rows := rowsOf(m2, d2); len(rows) != 2 || rows[id{key: "brief", w: w}] != nil {
		t.Fatalf("c2's Stat stream holds %d rows over state born and consumed between the cuts, want kept and held", len(rows))
	}

	// Held by c1/c2, consumed now: its row is gone from the stream.
	mustGet(t, s, "held", w)
	m3, d3 := cut("c3", m2, d2)
	if rows := rowsOf(m3, d3); len(rows) != 1 || rows[id{key: "kept", w: w}] == nil {
		t.Fatalf("c3's Stat stream holds %d rows after consuming a held state, want only kept", len(rows))
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20})
	if err := dst.restoreFrom(d3); err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	_, kept := dst.table[id{key: "kept", w: w}]
	rows := len(dst.table)
	dst.mu.Unlock()
	if !kept || rows != 1 {
		t.Fatalf("restored Stat table has %d rows (kept present: %v), want only kept", rows, kept)
	}
}

// TestStatStreamRebasesWhenTombstonesOutnumberCleanRows: when most of the
// sessions the parent holds have fired by the next cut, the Stat stream is
// the live table dumped whole, nothing of the parent's stream — and so is
// a cut that leaves most rows clean.
func TestStatStreamRebasesWhenTombstonesOutnumberCleanRows(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	base := t.TempDir()
	var parent *ckpt.Meta
	var parentDir string
	cut := func(name string) (rows int) {
		t.Helper()
		dir := filepath.Join(base, name)
		if _, err := s.checkpointTo(dir, parent, parentDir); err != nil {
			t.Fatal(err)
		}
		src, err := ckpttest.Source(dir)
		if err != nil {
			t.Fatal(err)
		}
		parent, parentDir = src.Meta, dir
		table, err := s.loadStatStream(src)
		if err != nil {
			t.Fatal(err)
		}
		return len(table)
	}
	for i := 0; i < 10; i++ {
		s.Append([]byte(fmt.Sprintf("s%02d", i)), []byte("v"), w, 1)
	}
	if n := cut("c1"); n != 10 {
		t.Fatalf("the first cut's Stat stream has %d rows, want 10", n)
	}
	for i := 0; i < 8; i++ { // eight consumed rows against two clean ones
		mustGet(t, s, fmt.Sprintf("s%02d", i), w)
	}
	for i := 10; i < 13; i++ {
		s.Append([]byte(fmt.Sprintf("s%02d", i)), []byte("v"), w, 2)
	}
	if n := cut("c2"); n != 5 {
		t.Fatalf("c2's Stat stream has %d rows, want the 5 live ones", n)
	}
	s.Append([]byte("s12"), []byte("v"), w, 3) // one dirty row, four clean
	if n := cut("c3"); n != 5 {
		t.Fatalf("c3's Stat stream has %d rows, want the 5 live ones", n)
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20})
	if err := dst.restoreFrom(parentDir); err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if len(dst.table) != 5 {
		t.Fatalf("restored Stat table has %d rows, want 5", len(dst.table))
	}
	for _, k := range []string{"s08", "s09", "s10", "s11", "s12"} {
		e := dst.table[id{key: k, w: w}]
		if want := int64(map[string]int{"s08": 1, "s09": 1, "s10": 2, "s11": 2, "s12": 3}[k]); e == nil || e.maxTS != want {
			t.Fatalf("restored row %s = %+v, want maxTS %d", k, e, want)
		}
	}
}

// TestLivenessFileIsDeterministic: two cuts of one state write the same
// liveness section, byte for byte, and its bitmap has exactly the batches an
// entry points at set, however many identities were consumed from the
// segment.
func TestLivenessFileIsDeterministic(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	for i := 0; i < 40; i++ {
		if err := s.Append([]byte(fmt.Sprintf("s%02d", i)), []byte("v"), w, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustGet(t, s, fmt.Sprintf("s%02d", i), w)
	}
	var snaps [][]byte
	for c := 0; c < 2; c++ {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if _, err := s.checkpointTo(dir, nil, ""); err != nil {
			t.Fatal(err)
		}
		src, err := ckpttest.Source(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := src.Section(ckpt.KindLive)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("two cuts of one state wrote different liveness sections:\n%x\n%x", snaps[0], snaps[1])
	}
	segs, err := ckpt.DecodeLiveness(snaps[0])
	if err != nil || len(segs) != 1 || segs[0].Entries != 40 {
		t.Fatalf("the liveness section decodes to %+v, %v; want one segment of 40 entries", segs, err)
	}
	var live []string
	for _, e := range storeEntries(t, s, false) {
		if segs[0].Live(e.ord) {
			live = append(live, e.ident.key)
		}
	}
	if want := []string{"s30", "s31", "s32", "s33", "s34", "s35", "s36", "s37", "s38", "s39"}; !slices.Equal(live, want) {
		t.Fatalf("the bitmap has %v live, want %v", live, want)
	}
}

// handCut writes a checkpoint of s, which must hold no buffered values,
// with rows as its Stat stream: the segments and the liveness section as
// CheckpointDelta writes them, the stream assembled here.
func handCut(t *testing.T, s *Store, dir string, rows []statRow) {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	_, err := ckpttest.Checkpoint(faultfs.OS, dir, nil, "", func(cut *ckpt.Cut) (*ckpt.Result, error) {
		live := make(ckpt.Live)
		s.mu.Lock()
		s.markLiveLocked(live)
		s.mu.Unlock()
		if err := ckpt.CutSegments(cut, s.segs, live); err != nil {
			return nil, err
		}
		err := cut.Stream(ckpt.KindDump, func(emit func([]byte)) error {
			for _, r := range rows {
				rec := binio.PutBytes([]byte{statKindSet}, []byte(r.ident.key))
				emit(binio.PutVarint(r.ident.w.AppendTo(rec), r.maxTS))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return cut.Finish()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreChecksStatRowsAgainstSegments: a Stat row without a live
// batch on disk, a live batch without a Stat row and a row shipped twice
// each fail Restore with binio.ErrCorrupt; the rows that match the
// segments restore.
func TestRestoreChecksStatRowsAgainstSegments(t *testing.T) {
	w := window.Window{Start: 0, End: gap}
	kept, consumed, ghost := id{key: "kept", w: w}, id{key: "consumed", w: w}, id{key: "ghost", w: w}
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	for _, k := range []id{kept, consumed} {
		if err := s.Append([]byte(k.key), []byte("v"), k.w, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, consumed.key, w) // its batch stays in the segment, dead
	for name, rows := range map[string][]statRow{
		"rows as on disk":      {{kept, 5}},
		"a row with no batch":  {{kept, 5}, {ghost, 5}},
		"a row for a dead one": {{kept, 5}, {consumed, 5}},
		"a batch with no row":  nil,
		"a row shipped twice":  {{kept, 5}, {kept, 5}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			handCut(t, s, dir, rows)
			dst := openTest(t, Options{WriteBufferBytes: 1 << 20})
			err := dst.restoreFrom(dir)
			if name == "rows as on disk" {
				if err != nil || dst.LiveStates() != 1 {
					t.Fatalf("restore: %v, %d states", err, dst.LiveStates())
				}
				return
			}
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("restore: %v, want binio.ErrCorrupt", err)
			}
		})
	}
}

// TestConsumedIdentityLivesAgain: a (key, window) that was flushed and
// consumed can be appended to, flushed — into the same open head — and
// consumed again. Consuming it drops only the references to the batches
// it had then — not to the ones its next life flushes into the same
// segment — whether or not a cleaning pass (which seals that head and
// moves its neighbour out) or a checkpoint and restore comes in between.
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
					if _, err := s.checkpointTo(dir, nil, ""); err != nil {
						t.Fatal(err)
					}
					dst := openTest(t, opts)
					if err := dst.restoreFrom(dir); err != nil {
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

// TestRestoreRejectsZeroedStatPage: a zeroed page inside the Stat stream's
// section of the CUT is a typed FrameError from Restore, never a Stat
// table missing the rows the page held.
func TestRestoreRejectsZeroedStatPage(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	// Enough rows that the deflated section spans more than three pages.
	for i := 0; i < 8000; i++ {
		if err := s.Append([]byte(fmt.Sprintf("session-%05d", i)), []byte("v"), w, 1); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadCut(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(c.Sections, func(sec ckpt.Section) bool { return sec.Name == ckpt.InstPrefix(0)+ckpt.KindDump })
	if i < 0 || c.Sections[i].Len < 3*4096 {
		t.Fatalf("the Stat stream's section %+v is too small to zero an inner page", c.Sections)
	}
	if err := faultfs.CorruptAtRest(nil, filepath.Join(dir, ckpt.CutName), faultfs.CorruptZeroPage, c.Sections[i].Off+4096); err != nil {
		t.Fatal(err)
	}
	var fe *binio.FrameError
	if err := openTest(t, Options{WriteBufferBytes: 1 << 20}).restoreFrom(dir); !errors.As(err, &fe) {
		t.Fatalf("restore over a zeroed Stat stream page: %v, want a FrameError", err)
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
// without the marker byte, the segment table in segments.snap — has no
// liveness section, like every checkpoint written before batches were tracked
// by reference, and fails Restore with a typed error (ckpt.ErrBadCut: no
// liveness section), restoring nothing, whether or not the store had
// spilled.
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
			meta := &ckpt.Meta{}
			segments := uint64(0)
			if spilled {
				segments = 1
				for _, name := range []string{"data-000000.log", "index-000000.log"} {
					f, err := ckptFile(dir, name, pairLayoutFrame(nil, []byte("batch")))
					if err != nil {
						t.Fatal(err)
					}
					meta.Files = append(meta.Files, f)
				}
			}
			snap := pairLayoutFrame(nil, binio.PutUvarint(nil, segments))
			if spilled {
				snap = pairLayoutFrame(snap, []byte{0, 1}) // segment 0, the open head
			}
			write("segments.snap", snap)
			if err := ckpttest.Write(dir, meta, map[string][]byte{ckpt.KindDump: nil}); err != nil {
				t.Fatal(err)
			}

			s := openTest(t, Options{WriteBufferBytes: 1 << 20})
			if err := s.restoreFrom(dir); !errors.Is(err, ckpt.ErrBadCut) {
				t.Fatalf("restore of a pair-layout checkpoint: %v, want ckpt.ErrBadCut", err)
			}
			if s.SegmentStats().LiveSegments != 0 || s.LiveStates() != 0 {
				t.Fatalf("the failed restore left %d segments and %d states", s.SegmentStats().LiveSegments, s.LiveStates())
			}
		})
	}
}
