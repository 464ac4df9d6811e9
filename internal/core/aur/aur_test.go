package aur

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

const gap = 100 // session gap for test predictors

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "aur")
	}
	if opts.Predictor == nil {
		opts.Predictor = window.SessionPredictor{Gap: gap}
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Destroy() })
	return s
}

// spaceAmp returns the log's space amplification: segment-log bytes over
// live bytes, 1.0 when nothing is live.
func spaceAmp(s *Store) float64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var total, live int64
	for _, sg := range s.segs.List() {
		total += sg.Log.Size()
		live += sg.Live
	}
	if live == 0 {
		return 1.0
	}
	return float64(total) / float64(live)
}

func mustGet(t *testing.T, s *Store, key string, w window.Window) []string {
	t.Helper()
	vals, err := s.Get([]byte(key), w)
	if err != nil {
		t.Fatal(err)
	}
	if vals == nil {
		return nil
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

func TestAppendGetInMemory(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("a"), w, 0)
	s.Append([]byte("k"), []byte("b"), w, 10)
	got := mustGet(t, s, "k", w)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
	// Fetch & remove semantics.
	if got := mustGet(t, s, "k", w); got != nil {
		t.Fatalf("second get returned %v", got)
	}
}

func TestGetMissingState(t *testing.T) {
	s := openTest(t, Options{})
	if got := mustGet(t, s, "nope", window.Window{Start: 1, End: 2}); got != nil {
		t.Fatalf("missing state returned %v", got)
	}
}

func TestPerKeyWindowIsolation(t *testing.T) {
	s := openTest(t, Options{})
	w1 := window.Window{Start: 0, End: gap}
	w2 := window.Window{Start: 500, End: 500 + gap}
	s.Append([]byte("k1"), []byte("k1w1"), w1, 0)
	s.Append([]byte("k1"), []byte("k1w2"), w2, 500)
	s.Append([]byte("k2"), []byte("k2w1"), w1, 1)
	if got := mustGet(t, s, "k1", w1); len(got) != 1 || got[0] != "k1w1" {
		t.Errorf("k1/w1 = %v", got)
	}
	if got := mustGet(t, s, "k1", w2); len(got) != 1 || got[0] != "k1w2" {
		t.Errorf("k1/w2 = %v", got)
	}
	if got := mustGet(t, s, "k2", w1); len(got) != 1 || got[0] != "k2w1" {
		t.Errorf("k2/w1 = %v", got)
	}
}

func TestFlushAndDiskRead(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 256})
	w := window.Window{Start: 0, End: gap}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Append([]byte("k"), []byte(fmt.Sprintf("v%03d", i)), w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, onDisk, _ := s.Peek([]byte("k"), w)
	if onDisk == 0 {
		t.Fatal("expected flushed state on disk")
	}
	got := mustGet(t, s, "k", w)
	if len(got) != n {
		t.Fatalf("read back %d values, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("v%03d", i) {
			t.Fatalf("value %d = %q: append order violated", i, got[i])
		}
	}
}

func TestPredictiveBatchReadPrefetchesNeighbors(t *testing.T) {
	// Many session windows with staggered ETTs; reading the earliest one
	// must prefetch the windows that trigger soon after.
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	const keys = 20
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		w := window.Window{Start: int64(i) * 10, End: int64(i)*10 + gap}
		// Two appends per window; tiny buffer flushes after each.
		s.Append(k, []byte("x"), w, int64(i)*10)
		s.Append(k, []byte("y"), w, int64(i)*10+1)
	}
	// First get: a miss that performs a batch read.
	w0 := window.Window{Start: 0, End: gap}
	if got := mustGet(t, s, "k00", w0); len(got) != 2 {
		t.Fatalf("k00 = %v", got)
	}
	hits, misses := s.HitCount()
	if misses != 1 || hits != 0 {
		t.Fatalf("after first get: hits=%d misses=%d", hits, misses)
	}
	// Subsequent gets in ETT order: should be prefetch hits.
	var hitCount int
	for i := 1; i < keys/2; i++ {
		k := fmt.Sprintf("k%02d", i)
		w := window.Window{Start: int64(i) * 10, End: int64(i)*10 + gap}
		if got := mustGet(t, s, k, w); len(got) != 2 {
			t.Fatalf("%s = %v", k, got)
		}
	}
	hits, _ = s.HitCount()
	hitCount = int(hits)
	if hitCount == 0 {
		t.Error("no prefetch hits despite batch read of upcoming windows")
	}
	if s.HitRatio() <= 0 {
		t.Error("hit ratio should be positive")
	}
}

func TestPredictionDisabledStillCorrect(t *testing.T) {
	// Ratio 0 (paper Fig. 11: prediction off): reads still work, all
	// disk reads are misses.
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0})
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		w := window.Window{Start: int64(i), End: int64(i) + gap}
		s.Append(k, []byte("v"), w, int64(i))
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		w := window.Window{Start: int64(i), End: int64(i) + gap}
		if got := mustGet(t, s, k, w); len(got) != 1 {
			t.Fatalf("%s = %v", k, got)
		}
	}
	hits, misses := s.HitCount()
	if hits != 0 || misses != 10 {
		t.Errorf("hits=%d misses=%d, want 0/10", hits, misses)
	}
}

func TestNoPredictorDegradesGracefully(t *testing.T) {
	// Count/custom windows have no predictor (§4.2); prefetching cannot
	// select candidates but correctness must hold.
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := Open(Options{Dir: dir, WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 10}
	s.Append([]byte("k"), []byte("a"), w, 0)
	s.Append([]byte("k"), []byte("b"), w, 1)
	vals, err := s.Get([]byte("k"), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("got %d values", len(vals))
	}
}

func TestWrongETTEvictsPrefetchedState(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 1.0})
	// Window A triggers first, window B is prefetched alongside it.
	wA := window.Window{Start: 0, End: gap}
	wB := window.Window{Start: 10, End: 10 + gap}
	s.Append([]byte("a"), []byte("va"), wA, 0)
	s.Append([]byte("b"), []byte("vb1"), wB, 10)
	mustGet(t, s, "a", wA) // miss -> batch read prefetches b/wB
	if _, _, pre := s.Peek([]byte("b"), wB); !pre {
		t.Fatal("wB should be prefetched")
	}
	// A new tuple arrives for b's session: the ETT was wrong, the
	// prefetched state must be evicted.
	s.Append([]byte("b"), []byte("vb2"), wB, 50)
	if _, _, pre := s.Peek([]byte("b"), wB); pre {
		t.Fatal("stale prefetched state must be evicted on append")
	}
	if s.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions())
	}
	// Both values must still be returned, in order, via re-read.
	got := mustGet(t, s, "b", wB)
	if len(got) != 2 || got[0] != "vb1" || got[1] != "vb2" {
		t.Fatalf("b/wB = %v", got)
	}
}

// TestConsumedSegmentsAreDropped: state that dies in the order it was
// written empties whole segments, and an emptied segment is unlinked
// without a byte being copied.
func TestConsumedSegmentsAreDropped(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, MaxSpaceAmplification: 1.2, ReadBatchRatio: 0})
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			k := []byte(fmt.Sprintf("r%02d-k%d", round, i))
			w := window.Window{Start: int64(round*100 + i), End: int64(round*100+i) + gap}
			if err := s.Append(k, make([]byte, 128), w, int64(round*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("r%02d-k%d", round, i)
			w := window.Window{Start: int64(round*100 + i), End: int64(round*100+i) + gap}
			if got := mustGet(t, s, k, w); len(got) != 1 {
				t.Fatalf("round %d key %s: %v", round, k, got)
			}
		}
	}
	if dropped, live, disk := s.SegmentStats().SegmentsDropped, s.SegmentStats().LiveSegments, s.DiskUsage(); dropped != 200 || live != 0 || disk != 0 {
		t.Errorf("%d segments dropped, %d live holding %d bytes; want one per append dropped and nothing left", dropped, live, disk)
	}
	if s.SegmentStats().Compactions != 0 || s.SegmentStats().CompactionBytes != 0 {
		t.Errorf("%d cleaning passes copied %d bytes of state that died in order", s.SegmentStats().Compactions, s.SegmentStats().CompactionBytes)
	}
	if files, err := filepath.Glob(filepath.Join(s.dir.Root(), "*")); err != nil || len(files) != 0 {
		t.Errorf("files left behind: %v (%v)", files, err)
	}
}

// churn appends n one-value sessions beside whatever the store holds and
// consumes every other one thirty appends later, so every eviction's
// segment ends up half dead.
func churn(t *testing.T, s *Store, n int) {
	t.Helper()
	session := func(i int) (string, window.Window) {
		return fmt.Sprintf("churn-%d", i), window.Window{Start: int64(i), End: int64(i) + gap}
	}
	for i := 0; i < n; i++ {
		k, w := session(i)
		if err := s.Append([]byte(k), make([]byte, 64), w, int64(i)); err != nil {
			t.Fatal(err)
		}
		if j := i - 30; j >= 0 && j%2 == 0 {
			k, w := session(j)
			if got := mustGet(t, s, k, w); len(got) != 1 {
				t.Fatalf("churn read %s: %d values", k, len(got))
			}
		}
	}
}

func TestCleaningReclaimsDeadBytes(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 10, MaxSpaceAmplification: 1.2, ReadBatchRatio: 0})
	churn(t, s, 2000)
	if s.SegmentStats().Compactions == 0 {
		t.Error("no cleaning pass despite heavy consumption")
	}
	if amp := spaceAmp(s); amp > 2.0 {
		t.Errorf("space amplification %f stayed high after cleaning", amp)
	}
}

func TestCleaningPreservesUnreadState(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 10, MaxSpaceAmplification: 1.1, ReadBatchRatio: 0})
	keep := window.Window{Start: 9999, End: 9999 + gap}
	if err := s.Append([]byte("keeper"), []byte("precious-1"), keep, 9999); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("keeper"), []byte("precious-2"), keep, 10000); err != nil {
		t.Fatal(err)
	}
	churn(t, s, 600)
	if s.SegmentStats().Compactions == 0 {
		t.Fatal("test needs at least one cleaning pass")
	}
	got := mustGet(t, s, "keeper", keep)
	if len(got) != 2 || got[0] != "precious-1" || got[1] != "precious-2" {
		t.Fatalf("state lost across cleaning: %v", got)
	}
}

func TestDrop(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v1"), w, 0)
	s.Append([]byte("k"), []byte("v2"), w, 1) // flushed + buffered
	if err := s.Drop([]byte("k"), w); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "k", w); got != nil {
		t.Fatalf("dropped state still readable: %v", got)
	}
	if s.LiveStates() != 0 {
		t.Errorf("LiveStates = %d after drop", s.LiveStates())
	}
}

func TestStatTableETTOrdering(t *testing.T) {
	// The batch read must prefer windows with the soonest ETT. Construct
	// three windows with distinct maxTS, read the earliest, and check
	// with a tiny ratio that only the next-soonest was prefetched.
	// ceil(0.1*3) = 1 candidate; minBatch lowered so the floor
	// does not widen the batch in this tiny scenario.
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.1, minBatch: 1})
	wEarly := window.Window{Start: 0, End: gap}
	wMid := window.Window{Start: 0, End: gap} // same initial boundary shape, different key
	wLate := window.Window{Start: 0, End: gap}
	s.Append([]byte("early"), []byte("v"), wEarly, 0)
	s.Append([]byte("mid"), []byte("v"), wMid, 1000)
	s.Append([]byte("late"), []byte("v"), wLate, 2000)

	mustGet(t, s, "early", wEarly) // miss; batch read selects 1 candidate
	_, _, preMid := s.Peek([]byte("mid"), wMid)
	_, _, preLate := s.Peek([]byte("late"), wLate)
	if !preMid {
		t.Error("window with soonest ETT was not prefetched")
	}
	if preLate {
		t.Error("window with latest ETT should not be prefetched at this ratio")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var bd metrics.Breakdown
	s := openTest(t, Options{WriteBufferBytes: 1, Breakdown: &bd, MaxSpaceAmplification: 1.1, ReadBatchRatio: 0})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		w := window.Window{Start: int64(i), End: int64(i) + gap}
		s.Append(k, make([]byte, 64), w, int64(i))
		mustGet(t, s, string(k), w)
	}
	if bd.Calls(metrics.OpWrite) == 0 || bd.Calls(metrics.OpRead) == 0 {
		t.Error("missing op accounting")
	}
	if s.SegmentStats().Compactions > 0 && bd.Calls(metrics.OpCompact) == 0 {
		t.Error("compactions not charged to the compaction bucket")
	}
	if bd.BytesWritten() == 0 || bd.BytesRead() == 0 {
		t.Error("missing I/O byte accounting")
	}
}

// TestByteAndHitCountersAccountForTheLogs: before anything is consumed
// every byte in the logs was put there by a flush; a cleaning pass's bytes
// are what it appended to the survivor segment; and a consumed identity
// counts once, by whether it had state on disk.
func TestByteAndHitCountersAccountForTheLogs(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1 << 10, ReadBatchRatio: 0, MaxSpaceAmplification: 1.2})
	session := func(i int) (string, window.Window) {
		return fmt.Sprintf("k%03d", i), window.Window{Start: int64(i), End: int64(i) + gap}
	}
	n := 0
	for ; s.SegmentStats().LiveSegments < 4; n++ {
		k, w := session(n)
		s.Append([]byte(k), []byte("value"), w, int64(n))
	}
	flushed := s.FlushedBatches()
	if got, disk := s.FlushBytes(), s.DiskUsage(); got != disk || flushed == 0 || s.SegmentStats().CompactionBytes != 0 {
		t.Fatalf("%d bytes in %d batches flushed, %d cleaned, %d on disk; want every byte on disk flushed",
			got, flushed, s.SegmentStats().CompactionBytes, disk)
	}
	// Consume every other session, flushed or not, then fill the buffer
	// again: the eviction finds the sealed segments half dead and cleans.
	var fromDisk int64
	for i := 0; i < n; i += 2 {
		k, w := session(i)
		if _, onDisk, _ := s.Peek([]byte(k), w); onDisk > 0 {
			fromDisk++
		}
		mustGet(t, s, k, w)
	}
	for i := n; s.SegmentStats().Compactions == 0 && i < 2*n; i++ {
		k, w := session(i)
		s.Append([]byte(k), []byte("value"), w, int64(i))
	}
	if s.SegmentStats().Compactions != 1 || s.segs.Survivor() == nil {
		t.Fatalf("%d cleaning passes, survivor segment %v; want 1 and open", s.SegmentStats().Compactions, s.segs.Survivor())
	}
	if got, surv := s.SegmentStats().CompactionBytes, s.segs.Survivor().Log.Size(); got != surv || got == 0 {
		t.Fatalf("%d bytes cleaned, the survivor segment holds %d", got, surv)
	}
	buffer, disk := s.ConsumedCount()
	if _, misses := s.HitCount(); buffer != int64((n+1)/2)-fromDisk || disk != fromDisk || disk != misses || disk == 0 || buffer == 0 {
		t.Fatalf("%d identities consumed from the buffer and %d with state on disk after %d misses; want %d and %d, one per miss",
			buffer, disk, misses, int64((n+1)/2)-fromDisk, fromDisk)
	}
}

func TestClosedErrors(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(nil, nil, window.Window{}, 0); err != ErrClosed {
		t.Errorf("Append: %v", err)
	}
	if _, err := s.Get(nil, window.Window{}); err != ErrClosed {
		t.Errorf("Get: %v", err)
	}
	if err := s.Drop(nil, window.Window{}); err != ErrClosed {
		t.Errorf("Drop: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("Flush: %v", err)
	}
}

func TestRandomizedSessionWorkload(t *testing.T) {
	// Property-style end-to-end shuffle: random appends and reads over
	// many (key, window) states with flushes, prefetching, eviction and
	// compaction all active; every value written must be read exactly
	// once, in append order.
	rng := rand.New(rand.NewSource(99))
	s := openTest(t, Options{WriteBufferBytes: 4096, ReadBatchRatio: 0.1, MaxSpaceAmplification: 1.3})
	type state struct {
		key  string
		w    window.Window
		vals []string
	}
	live := make(map[int]*state)
	next := 0
	total := 0
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(100) < 60 {
			// Append to a random (possibly new) state.
			var st *state
			if len(live) > 0 && rng.Intn(100) < 70 {
				for _, v := range live {
					st = v
					break
				}
			} else {
				st = &state{
					key: fmt.Sprintf("key-%06d", next),
					w:   window.Window{Start: int64(next), End: int64(next) + gap},
				}
				live[next] = st
				next++
			}
			v := fmt.Sprintf("v-%08d", total)
			total++
			st.vals = append(st.vals, v)
			if err := s.Append([]byte(st.key), []byte(v), st.w, int64(step)); err != nil {
				t.Fatal(err)
			}
		} else {
			// Trigger a random live state.
			var idx int
			for k := range live {
				idx = k
				break
			}
			st := live[idx]
			delete(live, idx)
			got := mustGet(t, s, st.key, st.w)
			if len(got) != len(st.vals) {
				t.Fatalf("step %d key %s: got %d values, want %d", step, st.key, len(got), len(st.vals))
			}
			for i := range got {
				if got[i] != st.vals[i] {
					t.Fatalf("key %s value %d: %q want %q", st.key, i, got[i], st.vals[i])
				}
			}
		}
	}
	// Drain the rest.
	for _, st := range live {
		got := mustGet(t, s, st.key, st.w)
		if len(got) != len(st.vals) {
			t.Fatalf("drain key %s: got %d want %d", st.key, len(got), len(st.vals))
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	s, err := Open(Options{
		Dir:              filepath.Join(b.TempDir(), "aur"),
		WriteBufferBytes: 8 << 20,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Destroy()
	val := make([]byte, 84)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("k%05d", i%1000))
		w := window.Window{Start: int64(i % 1000), End: int64(i%1000) + gap}
		if err := s.Append(k, val, w, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetWithPrefetch(b *testing.B) {
	s, err := Open(Options{
		Dir:              filepath.Join(b.TempDir(), "aur"),
		WriteBufferBytes: 64 << 10,
		ReadBatchRatio:   0.02,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Destroy()
	val := make([]byte, 84)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("k%07d", i))
		w := window.Window{Start: int64(i), End: int64(i) + gap}
		s.Append(k, val, w, int64(i))
		if i%100 == 99 {
			for j := i - 99; j <= i; j++ {
				kj := []byte(fmt.Sprintf("k%07d", j))
				wj := window.Window{Start: int64(j), End: int64(j) + gap}
				if _, err := s.Get(kj, wj); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
