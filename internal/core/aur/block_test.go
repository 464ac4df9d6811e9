package aur

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// diskBatch is one batch in a segment as a test sees it.
type diskBatch struct {
	ident id
	vals  []string
	seq   uint64
	off   int64  // the offset of its block
	size  int    // what it counts for in the segment's live bytes
	ord   uint32 // its ordinal among the segment's entries
}

// segmentName is the file name of segment id.
func segmentName(id uint32) string { return logfile.SegmentName(segmentPrefix, id) }

// segmentEntries decodes every entry of sg's log, consumed ones and those
// past its installed entries included; caller holds ioMu.
func segmentEntries(t testing.TB, sg *segment) []diskBatch {
	t.Helper()
	sc, err := sg.Log.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	var out []diskBatch
	for off := int64(0); sc.Scan(); off = sc.Offset() {
		frame := int(sc.Offset()-off) - len(sc.Record())
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			en := diskBatch{ident: id{key: string(e.Key), w: e.Window}, seq: e.Seq, off: off, size: e.Size + frame, ord: uint32(len(out))}
			for _, v := range e.Values {
				en.vals = append(en.vals, string(v))
			}
			out, frame = append(out, en), 0
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// segmentBlocks returns the payloads of sg's blocks; caller holds ioMu.
func segmentBlocks(t testing.TB, sg *segment) [][]byte {
	t.Helper()
	sc, err := sg.Log.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for sc.Scan() {
		blocks = append(blocks, bytes.Clone(sc.Record()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// storeEntries decodes every entry of the store's segments, segment by
// segment in id order; liveOnly keeps those an entry points at.
func storeEntries(t testing.TB, s *Store, liveOnly bool) []diskBatch {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var out []diskBatch
	for _, sg := range s.segs.List() {
		for _, e := range segmentEntries(t, sg) {
			s.mu.Lock()
			te := s.table[e.ident]
			s.mu.Unlock()
			if !liveOnly || te != nil && te.refAt(sg.ID, e.ord) >= 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// segmentLogSize returns the bytes of every segment log.
func segmentLogSize(s *Store) (n int64) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	for _, sg := range s.segs.List() {
		n += sg.Log.Size()
	}
	return n
}

// forceClean seals the flush head and runs what an evicting flush runs
// behind itself: a reap and, over MSA, one cleaning pass.
func forceClean(t testing.TB, s *Store) {
	t.Helper()
	sealHead(t, s)
	cleanNow(t, s)
}

// TestValueOrderSurvivesBlockIndexLifecycle drives ids whose ETTs descend
// in insertion order — so a flush lays batches out in the reverse of the
// order they were first appended — through flush, flush, a cleaning pass,
// another flush, a base checkpoint, a delta checkpoint whose head segment
// extends the parent's at a block boundary, and a restore, and checks
// every id's values against a slice oracle at the end: append order per
// id must not depend on where the batches landed.
func TestValueOrderSurvivesBlockIndexLifecycle(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20}) // ratio 0: every Get of flushed state scans
	const ids = 60
	session := func(i int) (string, window.Window) {
		start := int64(ids-i) * 1000 // later ids trigger sooner
		return fmt.Sprintf("k%02d", i), window.Window{Start: start, End: start + gap}
	}
	oracle := make(map[int][]string)
	seq := 0
	appendRound := func(perID int) {
		t.Helper()
		for i := 0; i < ids; i++ {
			k, w := session(i)
			for j := 0; j < perID; j++ {
				v := fmt.Sprintf("v%05d", seq)
				seq++
				if err := s.Append([]byte(k), []byte(v), w, w.Start+int64(len(oracle[i]))); err != nil {
					t.Fatal(err)
				}
				oracle[i] = append(oracle[i], v)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	appendRound(2)
	entries := storeEntries(t, s, false)
	if len(entries) != ids || entries[0].ident.key != fmt.Sprintf("k%02d", ids-1) {
		t.Fatalf("first flush wrote %d entries starting with %q: not in ETT order", len(entries), entries[0].ident.key)
	}
	appendRound(1)

	// Consume every other id: half the segment dies, and is cleaned.
	for i := 0; i < ids; i += 2 {
		k, w := session(i)
		if got := mustGet(t, s, k, w); !slices.Equal(got, oracle[i]) {
			t.Fatalf("get %s = %v, want %v", k, got, oracle[i])
		}
		delete(oracle, i)
	}
	forceClean(t, s)
	if s.SegmentStats().Compactions != 1 {
		t.Fatal("consuming half the state never cleaned")
	}
	extend := func() {
		t.Helper()
		for i := range oracle {
			k, w := session(i)
			v := fmt.Sprintf("v%05d", seq)
			seq++
			if err := s.Append([]byte(k), []byte(v), w, w.Start+50); err != nil {
				t.Fatal(err)
			}
			oracle[i] = append(oracle[i], v)
		}
	}
	extend()

	parentDir := filepath.Join(t.TempDir(), "base")
	if _, err := s.checkpointTo(parentDir, nil, ""); err != nil {
		t.Fatal(err)
	}
	parent, err := ckpttest.Meta(parentDir)
	if err != nil {
		t.Fatal(err)
	}
	extend()
	childDir := filepath.Join(t.TempDir(), "delta")
	if _, err := s.checkpointTo(childDir, parent, parentDir); err != nil {
		t.Fatal(err)
	}
	child, err := ckpttest.Meta(childDir)
	if err != nil {
		t.Fatal(err)
	}
	// The parent's cut sealed the head it flushed into, so what extend
	// wrote went to a fresh head: the child links the parent's segments
	// whole, from the parent, and adds its own.
	var shared int
	for _, f := range child.Files {
		if parent.File(f.Logical) == nil {
			continue
		}
		shared++
		name := ckpt.FileName(0, f.Logical)
		same(t, filepath.Join(parentDir, name), filepath.Join(childDir, name))
	}
	if shared == 0 || shared == len(child.Files) {
		t.Fatalf("the child holds %d of the parent's %d segments among its %d: want some, and a new head", shared, len(parent.Files), len(child.Files))
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0.1})
	if err := dst.restoreFrom(childDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids; i++ {
		k, w := session(i)
		got := mustGet(t, dst, k, w)
		if want, live := oracle[i]; !live {
			if got != nil {
				t.Fatalf("consumed %s resurrected after restore: %v", k, got)
			}
		} else if !slices.Equal(got, want) {
			t.Fatalf("restored %s = %v, want %v", k, got, want)
		}
	}
}

// TestSegmentBytesPerBatchBudget is the unit-level guard for the segment
// layout's size: 1 000 single-value batches with 5-byte keys must cost at
// most 16 segment-log bytes each, data and location together — the data
// frame and index entry of the earlier data/index pair spent about 27 —
// and so must the batches a cleaning pass re-encodes. The counts repeat
// exactly.
func TestSegmentBytesPerBatchBudget(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	const n, budget = 1000, 16
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("k%04d", i)), window.Window{Start: int64(i) * 10, End: int64(i)*10 + gap}
	}
	for i := 0; i < n; i++ {
		k, w := session(i)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(storeEntries(t, s, false)); got != n {
		t.Fatalf("flush wrote %d entries, want %d", got, n)
	}
	if size := segmentLogSize(s); size > budget*n {
		t.Errorf("flush: %d segment bytes for %d batches (%.1f B/batch), budget %d", size, n, float64(size)/n, budget)
	}

	for i := 0; i < n/2; i++ {
		if _, err := s.Get(session(i)); err != nil {
			t.Fatal(err)
		}
	}
	forceClean(t, s)
	if s.SegmentStats().Compactions != 1 {
		t.Fatal("consuming half the state never cleaned")
	}
	live := len(storeEntries(t, s, false))
	if live != n/2 {
		t.Fatalf("survivor holds %d entries, want %d", live, n/2)
	}
	if size := segmentLogSize(s); size > int64(budget*live) {
		t.Errorf("cleaning: %d segment bytes for %d batches (%.1f B/batch), budget %d", size, live, float64(size)/float64(live), budget)
	}
}

// TestCorruptIndexBlockIsTyped damages a synced segment block — the
// blocks are what locate the batches now — past anything the retained tail
// could heal, by a flipped byte and by a zeroed page in the middle of the
// log, and requires the typed logfile.CorruptError, carrying the
// *binio.FrameError, from both the read path's scan and scrub.
func TestCorruptIndexBlockIsTyped(t *testing.T) {
	for _, kind := range []faultfs.CorruptKind{faultfs.CorruptBitFlip, faultfs.CorruptZeroPage} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "aur")
			s := openTest(t, Options{Dir: dir, WriteBufferBytes: 1 << 20})
			w := window.Window{Start: 0, End: gap}
			const n = 2000 // about 16 KiB: a page in the middle spares the first and last blocks
			for i := 0; i < n; i++ {
				if err := s.Append([]byte(fmt.Sprintf("k%04d", i)), []byte("v"), w, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segmentName(0))
			if err := faultfs.CorruptAtRest(nil, path, kind, segmentLogSize(s)/2); err != nil {
				t.Fatal(err)
			}

			// The last key's batch sits behind the damage in the scan.
			var ce *logfile.CorruptError
			var fe *binio.FrameError
			if _, err := s.Get([]byte(fmt.Sprintf("k%04d", n-1)), w); !errors.As(err, &ce) || !errors.As(err, &fe) {
				t.Errorf("get over a damaged block: %v, want a *logfile.CorruptError over a *binio.FrameError", err)
			}
			if _, err := s.Scrub(); !errors.As(err, &ce) || !errors.As(err, &fe) {
				t.Errorf("scrub over a damaged block: %v, want a *logfile.CorruptError over a *binio.FrameError", err)
			}
		})
	}
}

// TestTornTailIndexBlockTruncatedOnOpen tears the last block of a closed
// store's segment log and reopens the file: open-time recovery must cut
// the log back to the previous block boundary, the first flush's blocks
// intact.
func TestTornTailIndexBlockTruncatedOnOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := Open(Options{Dir: dir, WriteBufferBytes: 1 << 20, Predictor: window.SessionPredictor{Gap: gap}})
	if err != nil {
		t.Fatal(err)
	}
	w := window.Window{Start: 0, End: gap}
	var firstBlockEnd int64
	for round := 0; round < 2; round++ {
		for i := 0; i < 50; i++ {
			if err := s.Append([]byte(fmt.Sprintf("r%dk%02d", round, i)), []byte("v"), w, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			firstBlockEnd = segmentLogSize(s)
		}
	}
	total := segmentLogSize(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	name := segmentName(0)
	if err := os.Truncate(filepath.Join(dir, name), total-3); err != nil {
		t.Fatal(err)
	}
	l, err := logfile.Open(filepath.Join(dir, name), nil)
	if err != nil {
		t.Fatalf("open over a torn tail block: %v", err)
	}
	defer l.Close()
	if l.Size() != firstBlockEnd {
		t.Fatalf("reopened segment log is %d bytes, want the first block's %d", l.Size(), firstBlockEnd)
	}
	sc, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for sc.Scan() {
		n, err := logfile.DecodeSegmentBlock(sc.Record(), func(*logfile.BlockEntry) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		entries += n
	}
	if err := sc.Err(); err != nil || entries != 50 {
		t.Fatalf("surviving log: %d entries, err %v; want the first flush's 50", entries, err)
	}
}

// scanFirstSelection is the selection the store made before it selected
// first: scan the whole index, keep the live entries in first-appearance
// order, and from those take the target plus the n with the smallest ETT
// that are predictable and not already prefetched. It is the reference
// TestSelectionFirstMatchesScanFirst holds selectBatch to.
func scanFirstSelection(t *testing.T, s *Store, target id) map[id]bool {
	t.Helper()
	entries := storeEntries(t, s, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var order []id
	seen := make(map[id]bool)
	for _, e := range entries {
		ident := e.ident
		if seen[ident] {
			continue
		}
		seen[ident] = true
		order = append(order, ident)
	}
	selected := make(map[id]bool)
	if seen[target] {
		selected[target] = true
	}
	n := int(math.Ceil(s.opts.ReadBatchRatio * float64(len(s.table))))
	if s.opts.ReadBatchRatio > 0 && n < s.opts.minBatch {
		n = s.opts.minBatch
	}
	var cands []id
	for _, ident := range order {
		if ident == target {
			continue
		}
		if e := s.table[ident]; e != nil && e.hasETT && e.prefetched == nil {
			cands = append(cands, ident)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return s.table[cands[i]].ett < s.table[cands[j]].ett })
	for _, ident := range cands[:min(n, len(cands))] {
		selected[ident] = true
	}
	return selected
}

// TestSelectionFirstMatchesScanFirst builds a randomized store — several
// flushes, consumed and prefetched ids, ids still only in the buffer —
// and checks on a series of misses that the ids a miss installs in the
// prefetch buffer are exactly those the old scan-then-select order would
// have chosen. Timestamps are unique, so ETTs never tie.
func TestSelectionFirstMatchesScanFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := openTest(t, Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0.05, minBatch: 4})
	const ids = 400
	session := func(i int) (string, window.Window) {
		return fmt.Sprintf("u%03d", i), window.Window{Start: int64(i), End: int64(i) + gap}
	}
	ts := rng.Perm(ids * 8)
	next := 0
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(ids)[:ids/2] {
			k, w := session(i)
			if err := s.Append([]byte(k), []byte(fmt.Sprintf("r%d", round)), w, int64(ts[next])); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if round < 3 { // the last round stays in the buffer
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushed := func() []id {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []id
		for ident, e := range s.table {
			if len(e.refs) > 0 && e.prefetched == nil {
				out = append(out, ident)
			}
		}
		slices.SortFunc(out, compareIDs)
		return out
	}
	prefetched := func() map[id]bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make(map[id]bool)
		for ident, e := range s.table {
			if e.prefetched != nil {
				out[ident] = true
			}
		}
		return out
	}
	for miss := 0; miss < 12; miss++ {
		candidates := flushed()
		if len(candidates) == 0 {
			break
		}
		target := candidates[rng.Intn(len(candidates))]
		want := scanFirstSelection(t, s, target)
		before := prefetched()
		consume := miss%3 == 0
		var err error
		if consume {
			_, err = s.Get([]byte(target.key), target.w)
		} else {
			_, err = s.Read([]byte(target.key), target.w)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[id]bool)
		for ident := range prefetched() {
			if !before[ident] {
				got[ident] = true
			}
		}
		if consume {
			delete(want, target) // a Get takes its target back out
		}
		if len(got) != len(want) {
			t.Fatalf("miss %d on %v installed %d ids, scan-first selects %d", miss, target, len(got), len(want))
		}
		for ident := range want {
			if !got[ident] {
				t.Fatalf("miss %d on %v: scan-first selects %v, selection-first did not install it", miss, target, ident)
			}
		}
	}
	if _, misses := s.HitCount(); misses < 12 {
		t.Fatalf("only %d of 12 probes missed", misses)
	}
}
