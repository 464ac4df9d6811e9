package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowkv/internal/faultfs"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// The concurrency stress battery. Each pattern runs stressWorkers
// goroutines of randomized operations against one composite store, every
// worker owning a disjoint key (and, for AAR, window) namespace so it can
// check each read's exact result against its private in-memory oracle —
// linearizability per key follows from per-key sequential access, while
// the store underneath interleaves flushes, compactions, drains, and
// checkpoints across workers. A chaos goroutine concurrently drives the
// cross-cutting operations (Flush, Sync, Stats, Checkpoint). Run with
// -race; the test exists to give the detector surface area.

const (
	stressWorkers = 8
	stressOps     = 300
)

func stressConfig(p Pattern) (AggKind, window.Kind, Options) {
	agg, wk, opts := crashConfig(p)
	opts.Instances = 4
	opts.WriteBufferBytes = 2048 // 512 per instance: constant flush churn
	if p == PatternRMW {
		// 128 per instance: a flush is two or three aggregates, so log
		// segments seal, empty, get cleaned and are unlinked every few
		// operations, under the workers' unlocked point reads.
		opts.WriteBufferBytes = 512
	}
	return agg, wk, opts
}

// stressWorker is one goroutine's private oracle.
type stressWorker struct {
	id  int
	rng *rand.Rand

	// AAR: this worker's windows (disjoint from other workers').
	wins map[window.Window]map[string][]string

	// AUR: per-state values; live tracks states eligible for reads.
	vals map[cid][]string
	live []cid

	// RMW: latest aggregate per id.
	aggs map[cid]string

	// lat holds one latency histogram per key this worker touched
	// (window-wide operations use a synthetic drain/drop key), so the
	// battery verdict can report tail latencies and a regression shows
	// up next to the correctness result instead of only in benchmarks.
	lat map[string]*metrics.Histogram
}

// observe records one store operation's latency under the key it touched.
func (sw *stressWorker) observe(key string, t0 time.Time) {
	h := sw.lat[key]
	if h == nil {
		h = metrics.NewHistogram()
		sw.lat[key] = h
	}
	h.Observe(time.Since(t0))
}

func (sw *stressWorker) window(n int64) window.Window {
	// Each worker's windows live in a private 1e6-wide band.
	start := int64(sw.id)*1_000_000 + 100*n
	return window.Window{Start: start, End: start + 100}
}

func (sw *stressWorker) stepAAR(s *Store, ctr int) error {
	switch {
	case len(sw.wins) > 0 && sw.rng.Intn(100) < 6:
		// Full drain of one of this worker's windows; every value must
		// come back exactly once, in per-key append order.
		var ws []window.Window
		for w := range sw.wins {
			ws = append(ws, w)
		}
		w := ws[sw.rng.Intn(len(ws))]
		got := map[string][]string{}
		for {
			t0 := time.Now()
			part, err := s.GetWindow(w)
			sw.observe(fmt.Sprintf("w%d:drain", sw.id), t0)
			if err != nil {
				return err
			}
			if part == nil {
				break
			}
			for _, kv := range part {
				for _, v := range kv.Values {
					got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
				}
			}
		}
		want := sw.wins[w]
		delete(sw.wins, w)
		if len(got) != len(want) {
			return fmt.Errorf("worker %d window %v: drained %d keys, want %d", sw.id, w, len(got), len(want))
		}
		for k, vs := range want {
			if len(got[k]) != len(vs) {
				return fmt.Errorf("worker %d window %v key %s: %d values, want %d", sw.id, w, k, len(got[k]), len(vs))
			}
			for i := range vs {
				if got[k][i] != vs[i] {
					return fmt.Errorf("worker %d window %v key %s[%d] = %q, want %q", sw.id, w, k, i, got[k][i], vs[i])
				}
			}
		}
		return nil
	case len(sw.wins) > 0 && sw.rng.Intn(100) < 5:
		var ws []window.Window
		for w := range sw.wins {
			ws = append(ws, w)
		}
		w := ws[sw.rng.Intn(len(ws))]
		t0 := time.Now()
		err := s.DropWindow(w)
		sw.observe(fmt.Sprintf("w%d:drop", sw.id), t0)
		if err != nil {
			return err
		}
		delete(sw.wins, w)
		return nil
	default:
		w := sw.window(int64(ctr/40) + int64(sw.rng.Intn(2)))
		key := fmt.Sprintf("w%d-k%d", sw.id, sw.rng.Intn(4))
		val := fmt.Sprintf("v%06d", ctr)
		t0 := time.Now()
		err := s.Append([]byte(key), []byte(val), w, w.Start)
		sw.observe(key, t0)
		if err != nil {
			return err
		}
		if sw.wins[w] == nil {
			sw.wins[w] = make(map[string][]string)
		}
		sw.wins[w][key] = append(sw.wins[w][key], val)
		return nil
	}
}

func (sw *stressWorker) stepAUR(s *Store, ctr int) error {
	if len(sw.live) == 0 || sw.rng.Intn(100) < 60 {
		var c cid
		if len(sw.live) > 0 && sw.rng.Intn(2) == 0 {
			c = sw.live[sw.rng.Intn(len(sw.live))]
		} else {
			c = cid{
				key: fmt.Sprintf("w%d-s%04d", sw.id, ctr),
				w:   sw.window(int64(ctr)),
			}
		}
		val := fmt.Sprintf("v%06d", ctr)
		t0 := time.Now()
		err := s.Append([]byte(c.key), []byte(val), c.w, c.w.Start)
		sw.observe(c.key, t0)
		if err != nil {
			return err
		}
		if _, ok := sw.vals[c]; !ok {
			sw.live = append(sw.live, c)
		}
		sw.vals[c] = append(sw.vals[c], val)
		return nil
	}
	i := sw.rng.Intn(len(sw.live))
	c := sw.live[i]
	want := sw.vals[c]
	switch sw.rng.Intn(3) {
	case 0: // peek, state stays live
		t0 := time.Now()
		got, err := s.Read([]byte(c.key), c.w)
		sw.observe(c.key, t0)
		if err != nil {
			return err
		}
		return sw.compare("Read", c, got, want)
	case 1: // drop unread
		t0 := time.Now()
		err := s.Drop([]byte(c.key), c.w)
		sw.observe(c.key, t0)
		if err != nil {
			return err
		}
		sw.retire(i, c)
		return nil
	default: // fetch & remove
		t0 := time.Now()
		got, err := s.Get([]byte(c.key), c.w)
		sw.observe(c.key, t0)
		if err != nil {
			return err
		}
		if err := sw.compare("Get", c, got, want); err != nil {
			return err
		}
		sw.retire(i, c)
		// A consumed state must stay consumed.
		if again, err := s.Get([]byte(c.key), c.w); err != nil {
			return err
		} else if again != nil {
			return fmt.Errorf("worker %d: consumed state %v resurrected: %q", sw.id, c, again)
		}
		return nil
	}
}

func (sw *stressWorker) retire(i int, c cid) {
	delete(sw.vals, c)
	sw.live[i] = sw.live[len(sw.live)-1]
	sw.live = sw.live[:len(sw.live)-1]
}

func (sw *stressWorker) compare(op string, c cid, got [][]byte, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("worker %d %s %v: %d values, want %d", sw.id, op, c, len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			return fmt.Errorf("worker %d %s %v[%d] = %q, want %q", sw.id, op, c, i, got[i], want[i])
		}
	}
	return nil
}

func (sw *stressWorker) stepRMW(s *Store, ctr int) error {
	c := cid{
		key: fmt.Sprintf("w%d-r%02d", sw.id, sw.rng.Intn(12)),
		w:   sw.window(int64(sw.rng.Intn(2))),
	}
	if sw.rng.Intn(100) < 60 {
		val := fmt.Sprintf("a%06d", ctr)
		t0 := time.Now()
		err := s.PutAggregate([]byte(c.key), c.w, []byte(val))
		sw.observe(c.key, t0)
		if err != nil {
			return err
		}
		sw.aggs[c] = val
		return nil
	}
	t0 := time.Now()
	got, ok, err := s.GetAggregate([]byte(c.key), c.w)
	sw.observe(c.key, t0)
	if err != nil {
		return err
	}
	want, exists := sw.aggs[c]
	if ok != exists {
		return fmt.Errorf("worker %d: aggregate %v present=%v, want %v", sw.id, c, ok, exists)
	}
	if ok && string(got) != want {
		return fmt.Errorf("worker %d: aggregate %v = %q, want %q", sw.id, c, got, want)
	}
	delete(sw.aggs, c) // Get consumes
	return nil
}

// finalVerify re-reads everything the worker still believes is live.
func (sw *stressWorker) finalVerify(s *Store, p Pattern) error {
	switch p {
	case PatternAAR:
		for w, want := range sw.wins {
			got := map[string][]string{}
			for {
				part, err := s.GetWindow(w)
				if err != nil {
					return err
				}
				if part == nil {
					break
				}
				for _, kv := range part {
					for _, v := range kv.Values {
						got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
					}
				}
			}
			for k, vs := range want {
				if len(got[k]) != len(vs) {
					return fmt.Errorf("worker %d final window %v key %s: %d values, want %d", sw.id, w, k, len(got[k]), len(vs))
				}
			}
		}
	case PatternAUR:
		for c, want := range sw.vals {
			got, err := s.Get([]byte(c.key), c.w)
			if err != nil {
				return err
			}
			if err := sw.compare("final Get", c, got, want); err != nil {
				return err
			}
		}
	default:
		for c, want := range sw.aggs {
			got, ok, err := s.GetAggregate([]byte(c.key), c.w)
			if err != nil {
				return err
			}
			if !ok || string(got) != want {
				return fmt.Errorf("worker %d final aggregate %v = %q,%v, want %q", sw.id, c, got, ok, want)
			}
		}
	}
	return nil
}

func runStress(t *testing.T, pattern Pattern, seed int64) {
	t.Helper()
	agg, wk, opts := stressConfig(pattern)
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	var (
		workersWg sync.WaitGroup
		chaosWg   sync.WaitGroup
		failMu    sync.Mutex
		fails     []error
	)
	fail := func(err error) {
		failMu.Lock()
		fails = append(fails, err)
		failMu.Unlock()
	}

	// Chaos goroutine: cross-cutting maintenance racing the workers for
	// their entire lifetime.
	stop := make(chan struct{})
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		ckptN := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(10) {
			case 0:
				if err := s.Sync(); err != nil {
					fail(fmt.Errorf("chaos Sync: %w", err))
					return
				}
			case 1, 2:
				if err := s.Flush(); err != nil {
					fail(fmt.Errorf("chaos Flush: %w", err))
					return
				}
			case 3:
				ckptN++
				if err := s.Checkpoint(filepath.Join(base, fmt.Sprintf("ckpt-%d", ckptN))); err != nil {
					fail(fmt.Errorf("chaos Checkpoint: %w", err))
					return
				}
			default:
				_ = s.Stats()
			}
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		}
	}()

	lats := make([]map[string]*metrics.Histogram, stressWorkers)
	for id := 0; id < stressWorkers; id++ {
		workersWg.Add(1)
		go func(id int) {
			defer workersWg.Done()
			sw := &stressWorker{
				id:   id,
				rng:  rand.New(rand.NewSource(seed + int64(id))),
				wins: make(map[window.Window]map[string][]string),
				vals: make(map[cid][]string),
				aggs: make(map[cid]string),
				lat:  make(map[string]*metrics.Histogram),
			}
			lats[id] = sw.lat
			for i := 0; i < stressOps; i++ {
				var err error
				switch pattern {
				case PatternAAR:
					err = sw.stepAAR(s, i)
				case PatternAUR:
					err = sw.stepAUR(s, i)
				default:
					err = sw.stepRMW(s, i)
				}
				if err != nil {
					fail(err)
					return
				}
				// Yield after every op so the workers interleave with each
				// other and with the chaos goroutine at any GOMAXPROCS: at
				// one P a worker would otherwise run its whole sequence in
				// one time slice, and no flush would ever race a cleaning
				// pass.
				runtime.Gosched()
			}
			if err := sw.finalVerify(s, pattern); err != nil {
				fail(err)
			}
		}(id)
	}

	workersWg.Wait()
	close(stop)
	chaosWg.Wait()

	failMu.Lock()
	defer failMu.Unlock()
	for _, err := range fails {
		t.Error(err)
	}
	if pattern == PatternRMW {
		// The leg is only worth its name if the log actually churned.
		if st := s.Stats(); st.SegmentsDropped == 0 || st.CompactionBytes == 0 {
			t.Errorf("RMW stress dropped %d segments and cleaned %d bytes; want both nonzero",
				st.SegmentsDropped, st.CompactionBytes)
		} else {
			t.Logf("RMW stress: %d segments dropped, %d cleaning passes copied %d bytes, %d segments live",
				st.SegmentsDropped, st.Compactions, st.CompactionBytes, st.LiveSegments)
		}
	}
	if pattern == PatternAUR {
		// Likewise: Gets must have raced evictions that kept part of the
		// buffer, so some sessions were consumed from memory and some not,
		// and cleaning passes that moved what they were about to read.
		if st := s.Stats(); st.BufferHits == 0 || st.DiskHits == 0 || st.FlushBytes == 0 || st.SegmentsDropped == 0 || st.CompactionBytes == 0 {
			t.Errorf("AUR stress consumed %d sessions from the buffer and %d with state on disk, flushed %d bytes, dropped %d segments and cleaned %d bytes; want all nonzero",
				st.BufferHits, st.DiskHits, st.FlushBytes, st.SegmentsDropped, st.CompactionBytes)
		} else {
			t.Logf("AUR stress: %d sessions consumed from the buffer, %d with state on disk; %d bytes flushed, %d segments dropped, %d cleaning passes copied %d bytes, %d segments live",
				st.BufferHits, st.DiskHits, st.FlushBytes, st.SegmentsDropped, st.Compactions, st.CompactionBytes, st.LiveSegments)
		}
	}
	reportStressLatency(t, pattern, lats, len(fails) == 0)
}

// reportStressLatency prints the battery's latency verdict: the merged
// distribution over every per-key histogram plus the worst keys by p99,
// so a tail regression surfaces in the same output as a correctness
// failure instead of waiting for a benchmark run.
func reportStressLatency(t *testing.T, pattern Pattern, lats []map[string]*metrics.Histogram, passed bool) {
	t.Helper()
	type keyLat struct {
		key string
		h   *metrics.Histogram
	}
	overall := metrics.NewHistogram()
	var keys []keyLat
	for _, m := range lats {
		for k, h := range m {
			overall.Merge(h)
			keys = append(keys, keyLat{key: k, h: h})
		}
	}
	if overall.Count() == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].h.P99() > keys[j].h.P99() })
	verdict := "PASS"
	if !passed {
		verdict = "FAIL"
	}
	t.Logf("%s stress %s: %d ops over %d keys, latency p50=%v p95=%v p99=%v max=%v",
		pattern, verdict, overall.Count(), len(keys),
		overall.P50(), overall.P95(), overall.P99(), overall.Max())
	for i, kl := range keys {
		if i >= 5 {
			break
		}
		t.Logf("  slowest key %-12s ops=%-4d p50=%v p99=%v max=%v",
			kl.key, kl.h.Count(), kl.h.P50(), kl.h.P99(), kl.h.Max())
	}
}

func TestConcurrentStressAAR(t *testing.T) { runStress(t, PatternAAR, 1) }
func TestConcurrentStressAUR(t *testing.T) { runStress(t, PatternAUR, 2) }
func TestConcurrentStressRMW(t *testing.T) { runStress(t, PatternRMW, 3) }

// TestConcurrentCheckpointConsistency: writers append monotonically
// numbered values per key while a checkpoint is taken mid-stream. The
// restored state of every key must be an exact prefix of its written
// sequence, at least as long as what was acked before Checkpoint began
// and at most one append longer than what was acked when it returned
// (one append per key may be in flight at the cut).
func TestConcurrentCheckpointConsistency(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) { runConcurrentCheckpoint(t, p) })
	}
}

func runConcurrentCheckpoint(t *testing.T, pattern Pattern) {
	t.Helper()
	agg, wk, opts := stressConfig(pattern)
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	const writers = 8
	var (
		counts [writers]int64 // appends acked, per writer (atomic)
		stop   int32
		wg     sync.WaitGroup
		werrMu sync.Mutex
		werr   error
	)
	win := func(id int) window.Window {
		start := int64(id) * 1000
		return window.Window{Start: start, End: start + 100}
	}
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("w%d-key", id))
			w := win(id)
			for i := 0; atomic.LoadInt32(&stop) == 0; i++ {
				val := []byte(fmt.Sprintf("v%06d", i))
				var err error
				switch pattern {
				case PatternAAR, PatternAUR:
					err = s.Append(key, val, w, w.Start)
				default:
					err = s.PutAggregate(key, w, val)
				}
				if err != nil {
					werrMu.Lock()
					if werr == nil {
						werr = err
					}
					werrMu.Unlock()
					return
				}
				atomic.AddInt64(&counts[id], 1)
			}
		}(id)
	}

	// Let every writer ack at least a few appends before the cut.
	for deadline := time.Now().Add(5 * time.Second); ; {
		ready := true
		for id := 0; id < writers; id++ {
			if atomic.LoadInt64(&counts[id]) < 4 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writers failed to make progress")
		}
		time.Sleep(time.Millisecond)
	}

	var low, high [writers]int64
	for id := range low {
		low[id] = atomic.LoadInt64(&counts[id])
	}
	ckpt := filepath.Join(base, "ckpt")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatalf("checkpoint under writers: %v", err)
	}
	for id := range high {
		high[id] = atomic.LoadInt64(&counts[id])
	}
	atomic.StoreInt32(&stop, 1)
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer error: %v", werr)
	}

	restOpts := opts
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if err := fresh.Restore(ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}

	for id := 0; id < writers; id++ {
		key := []byte(fmt.Sprintf("w%d-key", id))
		w := win(id)
		var got []string
		switch pattern {
		case PatternAAR:
			for {
				part, err := fresh.GetWindow(w)
				if err != nil {
					t.Fatal(err)
				}
				if part == nil {
					break
				}
				for _, kv := range part {
					for _, v := range kv.Values {
						got = append(got, string(v))
					}
				}
			}
		case PatternAUR:
			vals, err := fresh.Get(key, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				got = append(got, string(v))
			}
		default:
			val, ok, err := fresh.GetAggregate(key, w)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("writer %d: aggregate missing after restore (low=%d)", id, low[id])
			}
			var seq int64
			if _, err := fmt.Sscanf(string(val), "v%d", &seq); err != nil {
				t.Fatalf("writer %d: unparsable aggregate %q", id, val)
			}
			if n := seq + 1; n < low[id] || n > high[id]+1 {
				t.Errorf("writer %d: restored aggregate seq %d outside acked bounds [%d, %d]",
					id, seq, low[id]-1, high[id])
			}
			continue
		}
		n := int64(len(got))
		if n < low[id] || n > high[id]+1 {
			t.Errorf("writer %d: restored %d values, acked bounds [%d, %d+1]", id, n, low[id], high[id])
		}
		for i, v := range got {
			if want := fmt.Sprintf("v%06d", i); v != want {
				t.Fatalf("writer %d: restored[%d] = %q, want %q (not a prefix)", id, i, v, want)
				break
			}
		}
	}
}

// TestConcurrentCheckpointInjectedFailure: a checkpoint that fails from
// an injected fault while writers are active must leave the store fully
// usable, and a retried checkpoint must commit and verify.
func TestConcurrentCheckpointInjectedFailure(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	agg, wk, opts := stressConfig(PatternRMW)
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	opts.FS = inj
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	const writers = 4
	var (
		counts [writers]int64
		stop   int32
		wg     sync.WaitGroup
	)
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("w%d-key", id))
			w := window.Window{Start: int64(id) * 1000, End: int64(id)*1000 + 100}
			for i := 0; atomic.LoadInt32(&stop) == 0; i++ {
				if err := s.PutAggregate(key, w, []byte(fmt.Sprintf("v%06d", i))); err != nil {
					// Injected faults must never leak into writer paths:
					// the rule targets the checkpoint tmp directory only.
					t.Errorf("writer %d: %v", id, err)
					return
				}
				atomic.AddInt64(&counts[id], 1)
			}
		}(id)
	}
	// Every writer must have acked state before the first cut: the
	// restore check below requires each writer's aggregate to exist, and
	// a checkpoint can commit before a not-yet-scheduled writer's first
	// Put.
	for id := range counts {
		for atomic.LoadInt64(&counts[id]) < 4 {
			time.Sleep(time.Millisecond)
		}
	}

	ckpt := filepath.Join(base, "ckpt")
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".tmp"})
	if err := s.Checkpoint(ckpt); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with injected tmp failure: %v", err)
	}
	inj.Reset()

	var low [writers]int64
	for id := range low {
		low[id] = atomic.LoadInt64(&counts[id])
	}
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	var high [writers]int64
	for id := range high {
		high[id] = atomic.LoadInt64(&counts[id])
	}
	atomic.StoreInt32(&stop, 1)
	wg.Wait()

	restOpts := opts
	restOpts.FS = nil
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if err := fresh.Restore(ckpt); err != nil {
		t.Fatalf("restore after failed+retried checkpoint: %v", err)
	}
	for id := 0; id < writers; id++ {
		key := []byte(fmt.Sprintf("w%d-key", id))
		w := window.Window{Start: int64(id) * 1000, End: int64(id)*1000 + 100}
		val, ok, err := fresh.GetAggregate(key, w)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("writer %d: aggregate missing after restore", id)
		}
		var seq int64
		if _, err := fmt.Sscanf(string(val), "v%d", &seq); err != nil {
			t.Fatalf("writer %d: unparsable aggregate %q", id, val)
		}
		if n := seq + 1; n < low[id] || n > high[id]+1 {
			t.Errorf("writer %d: restored seq %d outside acked bounds [%d, %d]", id, seq, low[id]-1, high[id])
		}
	}
}
