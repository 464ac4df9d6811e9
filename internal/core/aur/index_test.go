package aur

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// indexEntries decodes every entry of the store's index logs, consumed
// ones included, segment by segment in id order.
func indexEntries(t testing.TB, s *Store) []IndexEntry {
	t.Helper()
	return decodeEntries(t, s, false)
}

func decodeEntries(t testing.TB, s *Store, liveOnly bool) []IndexEntry {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var out []IndexEntry
	for _, sg := range s.segs.List() {
		marks := SegmentInfo{Marks: sg.X.consumed}
		for _, b := range segmentBlocks(t, sg) {
			es, err := DecodeIndexBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range es {
				if !liveOnly || !marks.Dead(e) {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

func indexLogSize(s *Store) (n int64) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	for _, sg := range s.segs.List() {
		n += sg.Logs[indexLog].Size()
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
// another flush, a base checkpoint, a delta checkpoint whose head index
// log extends the parent's at a block boundary, and a restore, and checks
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
	entries := indexEntries(t, s)
	if len(entries) != ids || string(entries[0].Key) != fmt.Sprintf("k%02d", ids-1) {
		t.Fatalf("first flush wrote %d entries starting with %q: not in ETT order", len(entries), entries[0].Key)
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
	res, err := s.CheckpointDelta(parentDir, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	parent, err := ckpt.ReadMeta(faultfs.OS, parentDir)
	if err != nil {
		t.Fatal(err)
	}
	extend()
	childDir := filepath.Join(t.TempDir(), "delta")
	if _, err := s.CheckpointDelta(childDir, parent, parentDir); err != nil {
		t.Fatal(err)
	}
	child, err := ckpt.ReadMeta(faultfs.OS, childDir)
	if err != nil {
		t.Fatal(err)
	}
	s.ioMu.Lock()
	head := indexName(s.segs.Head().ID)
	s.ioMu.Unlock()
	if segs := child.File(head).Segments; len(segs) < 2 {
		t.Fatalf("delta checkpoint's %s has %d segment(s): the parent's was not extended", head, len(segs))
	}

	dst := openTest(t, Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0.1})
	if err := dst.Restore(childDir); err != nil {
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

// TestIndexBytesPerEntryBudget is the unit-level guard for the block
// index's size: 1 000 single-value batches with 5-byte keys must cost at
// most 14 index-log bytes each — the per-entry frame and absolute offset
// of the old format alone were 9 — and the index a cleaning pass writes
// must obey the same budget. The counts repeat exactly.
func TestIndexBytesPerEntryBudget(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	const n = 1000
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
	if got := len(indexEntries(t, s)); got != n {
		t.Fatalf("flush indexed %d entries, want %d", got, n)
	}
	if size := indexLogSize(s); size > 14*n {
		t.Errorf("flush: %d index bytes for %d entries (%.1f B/entry), budget 14", size, n, float64(size)/n)
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
	live := len(indexEntries(t, s))
	if live != n/2 {
		t.Fatalf("survivor index holds %d entries, want %d", live, n/2)
	}
	if size := indexLogSize(s); size > int64(14*live) {
		t.Errorf("cleaning: %d index bytes for %d entries (%.1f B/entry), budget 14", size, live, float64(size)/float64(live))
	}
}

// TestCorruptIndexBlockIsTyped flips one byte inside a synced index block
// — past anything the retained tail could heal — and requires the typed
// logfile.CorruptError from both the read path's scan and scrub.
func TestCorruptIndexBlockIsTyped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s := openTest(t, Options{Dir: dir, WriteBufferBytes: 1 << 20})
	w := window.Window{Start: 0, End: gap}
	for i := 0; i < 200; i++ {
		if err := s.Append([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, dir, "index-", 0.5)

	var ce *logfile.CorruptError
	if _, err := s.Get([]byte("k000"), w); !errors.As(err, &ce) {
		t.Errorf("get over a bit-flipped index block: %v, want a *logfile.CorruptError", err)
	}
	if _, err := s.Scrub(); !errors.As(err, &ce) {
		t.Errorf("scrub over a bit-flipped index block: %v, want a *logfile.CorruptError", err)
	}
}

// TestTornTailIndexBlockTruncatedOnOpen tears the last index block of a
// closed store's index log and reopens the file: open-time recovery must
// cut the log back to the previous block boundary, exactly as it did
// for a torn single entry.
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
			firstBlockEnd = indexLogSize(s)
		}
	}
	total := indexLogSize(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	name := "index-000000.log"
	if err := os.Truncate(filepath.Join(dir, name), total-3); err != nil {
		t.Fatal(err)
	}
	d, err := logfile.OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Open(name)
	if err != nil {
		t.Fatalf("open over a torn tail block: %v", err)
	}
	defer l.Close()
	if l.Size() != firstBlockEnd {
		t.Fatalf("reopened index log is %d bytes, want the first block's %d", l.Size(), firstBlockEnd)
	}
	sc, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for sc.Scan() {
		es, err := DecodeIndexBlock(sc.Record())
		if err != nil {
			t.Fatal(err)
		}
		entries += len(es)
	}
	if err := sc.Err(); err != nil || entries != 50 {
		t.Fatalf("surviving index: %d entries, err %v; want the first flush's 50", entries, err)
	}
}

// scanFirstSelection is the selection the store made before it selected
// first: scan the whole index, keep the live entries in first-appearance
// order, and from those take the target plus the n with the smallest ETT
// that are predictable and not already prefetched. It is the reference
// TestSelectionFirstMatchesScanFirst holds selectBatch to.
func scanFirstSelection(t *testing.T, s *Store, target id) map[id]bool {
	t.Helper()
	entries := decodeEntries(t, s, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var order []id
	seen := make(map[id]bool)
	for _, e := range entries {
		ident := id{key: string(e.Key), w: e.Window}
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
	n := int(math.Ceil(s.opts.ReadBatchRatio * float64(len(s.stat))))
	if s.opts.ReadBatchRatio > 0 && n < s.opts.MinBatchWindows {
		n = s.opts.MinBatchWindows
	}
	var cands []id
	for _, ident := range order {
		if ident == target {
			continue
		}
		if _, already := s.prefetch[ident]; already {
			continue
		}
		if st := s.stat[ident]; st != nil && st.hasETT {
			cands = append(cands, ident)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return s.stat[cands[i]].ett < s.stat[cands[j]].ett })
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
	s := openTest(t, Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0.05, MinBatchWindows: 4})
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
		for ident := range s.onDisk {
			if _, pre := s.prefetch[ident]; !pre {
				out = append(out, ident)
			}
		}
		slices.SortFunc(out, compareIDs)
		return out
	}
	prefetched := func() map[id]bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make(map[id]bool, len(s.prefetch))
		for ident := range s.prefetch {
			out[ident] = true
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
