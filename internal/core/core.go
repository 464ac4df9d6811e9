// Package core is the top level of FlowKV, the paper's semantic-aware
// composite store for stream processing engines. At application launch it
// classifies each window operation into one of three store patterns from
// the operation's aggregate-function interface and window function
// (§3.1), and deploys store instances with data layouts customized for
// that pattern:
//
//   - AAR (Append and Aligned Read)   — internal/core/aar
//   - AUR (Append and Unaligned Read) — internal/core/aur
//   - RMW (Read-Modify-Write)         — internal/core/rmw
//
// A Store for one physical window operator is itself composed of m
// independent instances over hash sub-partitions of the operator's key
// space (§3, "FlowKV further partitions K_i into K_i,0..K_i,m-1"); this
// keeps compaction local to one sub-partition and bounds latency spikes.
//
// Unlike traditional KV stores, every API method takes the window — and,
// where relevant, the tuple timestamp — as explicit arguments (§3.2,
// Listing 1); the API is exposed to the SPE, not to user applications.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// ErrWrongPattern reports a call to an API method that the store's
// classified pattern does not support.
var ErrWrongPattern = errors.New("flowkv: method not supported by this store pattern")

// AggKind describes which aggregate-function interface the window
// operation implements, the first classification axis of §3.1.
type AggKind int

const (
	// AggIncremental marks associative and commutative aggregate
	// functions applied incrementally (Flink's AggregateFunction):
	// the operation keeps one intermediate aggregate per window.
	AggIncremental AggKind = iota
	// AggHolistic marks aggregate functions that need every tuple of the
	// window before triggering (Flink's ProcessWindowFunction), e.g.
	// median or windowed join: the operation appends tuples to a list.
	AggHolistic
)

// String returns the aggregate-kind name.
func (k AggKind) String() string {
	switch k {
	case AggIncremental:
		return "incremental"
	case AggHolistic:
		return "holistic"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// Pattern is a FlowKV store pattern, chosen once at application launch.
type Pattern int

const (
	// PatternAAR: holistic aggregate + aligned windows (fixed/sliding/global).
	PatternAAR Pattern = iota
	// PatternAUR: holistic aggregate + unaligned windows (session/count/custom).
	PatternAUR
	// PatternRMW: incremental aggregate; read alignment is irrelevant
	// because the aggregate is read on every tuple arrival (§2.1).
	PatternRMW
)

// String returns the store-pattern name.
func (p Pattern) String() string {
	switch p {
	case PatternAAR:
		return "AAR"
	case PatternAUR:
		return "AUR"
	case PatternRMW:
		return "RMW"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Classify maps an operation's aggregate kind and window kind to the
// store pattern FlowKV deploys for it, following §3.1 exactly: the
// aggregate interface decides RMW vs Append; the window function decides
// aligned vs unaligned reads, with unknown (custom) window functions
// conservatively treated as unaligned.
func Classify(agg AggKind, wk window.Kind) Pattern {
	if agg == AggIncremental {
		return PatternRMW
	}
	if wk.Aligned() {
		return PatternAAR
	}
	return PatternAUR
}

// Options configures a composite FlowKV store for one physical operator.
type Options struct {
	// Dir is the root directory; each instance gets a subdirectory.
	Dir string
	// Instances is m, the number of store instances per physical window
	// operator. Default 2 (the paper's evaluated configuration).
	Instances int
	// WriteBufferBytes is the total write-buffer capacity, split evenly
	// across instances. Default 64 MiB.
	WriteBufferBytes int64
	// ReadBatchRatio is the AUR predictive-batch-read ratio. Default 0.02.
	ReadBatchRatio float64
	// MaxSpaceAmplification is the compaction threshold. Default 1.5.
	MaxSpaceAmplification float64
	// LoadPartitionBytes bounds AAR gradual-loading partitions. Default 4 MiB.
	LoadPartitionBytes int64
	// Predictor overrides the ETT predictor; when nil, the predictor is
	// derived from the window kind and assigner (window.PredictorFor).
	Predictor window.Predictor
	// Assigner is the operator's window assigner, used to derive the
	// default predictor (e.g. the session gap).
	Assigner window.Assigner
	// Parallelism bounds the worker goroutines used for cross-instance
	// fan-out: GetWindow drains, Flush, Sync, and checkpoint writes.
	// 1 runs those serially. Default min(4, Instances).
	Parallelism int
	// MaxDeltaChain, when negative, makes CheckpointDelta ignore its
	// parent, so every file is linked from the live directory, and a file
	// the store has not synced itself is fsynced again at every commit.
	// Zero or positive links what the parent holds from there. Only the
	// full_commits ablation sets it; it goes with the bench harness's
	// merge into one (ROADMAP item 1(d)).
	MaxDeltaChain int
	// DisableGroupCommit makes CheckpointDelta fsync each written file
	// immediately (the historical per-log discipline) instead of
	// batching every instance's fsyncs into one sync window per
	// checkpoint. Ablation only.
	DisableGroupCommit bool
	// ReadRetryBackoff is the initial backoff between read retries
	// (maxReadRetries of them), doubling per attempt. Default 1ms.
	ReadRetryBackoff time.Duration
	// FineGrainedAAR enables the fine-grained AAR layout (ablation).
	FineGrainedAAR bool
	// FS is the filesystem seam shared by every instance and the
	// checkpoint machinery; nil means the real OS filesystem.
	// Fault-injection tests substitute a faultfs.Injector.
	FS faultfs.FS
	// Breakdown receives per-operation CPU time and I/O accounting.
	Breakdown *metrics.Breakdown
	// OpDeadline bounds each log write and fsync: an operation still
	// running at the deadline is abandoned (its descriptor is never
	// touched again), the log poisons through the failed-sync path, and
	// the store degrades with ReasonStall. 0 disables the sentinel —
	// a hung syscall then hangs its caller, the pre-gray-failure
	// behaviour.
	OpDeadline time.Duration
	// SlowOpThreshold degrades the store (ReasonLatency) when the EWMA
	// of write/fsync latency crosses it — the disk that never errors
	// but answers 100x slower than it should. Nothing is poisoned;
	// Recover returns straight to Healthy with a reset baseline. 0
	// disables the latency signal.
	SlowOpThreshold time.Duration
}

func (o *Options) fill() {
	if o.Instances <= 0 {
		o.Instances = 2
	}
	if o.WriteBufferBytes <= 0 {
		o.WriteBufferBytes = 64 << 20
	}
	if o.ReadBatchRatio == 0 {
		o.ReadBatchRatio = 0.02
	}
	if o.ReadBatchRatio < 0 { // explicit "disable prediction"
		o.ReadBatchRatio = 0
	}
	if o.MaxSpaceAmplification <= 0 {
		o.MaxSpaceAmplification = 1.5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	if o.Parallelism > o.Instances {
		o.Parallelism = o.Instances
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.ReadRetryBackoff <= 0 {
		o.ReadRetryBackoff = time.Millisecond
	}
}

// KeyValues re-exports the AAR group type for consumers of GetWindow.
type KeyValues = aar.KeyValues

// Store is the composite FlowKV store for one physical window operator:
// a pattern chosen at launch plus m concurrent store instances. Only the
// methods matching the pattern may be called; others return
// ErrWrongPattern.
//
// A Store is safe for concurrent use: per-key operations go straight to
// the owning instance (each instance carries its own locks), and
// cross-instance operations — GetWindow drains, Flush, Sync, Checkpoint —
// fan across instances with at most Options.Parallelism worker
// goroutines.
type Store struct {
	pattern Pattern
	opts    Options

	// insts holds the m instances behind the lifecycle interface. Exactly
	// one of the typed views below is populated, with the same stores in
	// the same order: the view matching the pattern, through which the
	// pattern-specific read/write API is called without interface dispatch.
	insts   []instance
	aarView []*aar.Store
	aurView []*aur.Store
	rmwView []*rmw.Store

	// mu guards the drain registry below.
	mu     sync.Mutex
	drains map[window.Window]*windowDrain

	// health is the failure-handling state machine (see health.go);
	// herr retains the first error that left Healthy and healthReason
	// its typed classification (error / stall / latency).
	health       atomic.Int32
	healthReason atomic.Int32
	herrMu       sync.Mutex
	herr         error

	// healthSubs are the NotifyHealth subscribers, invoked on every
	// health transition; lastNotified dedups repeats of the same state
	// (a healer retrying Recover must not spam Failed), re-armed by the
	// next actual state change.
	subsMu       sync.Mutex
	healthSubs   []func(Health, HealthReason, error)
	lastNotified atomic.Int32

	// mon observes per-op latency at the logfile descriptors (see
	// latency.go): write/read/sync histograms for Stats, plus the EWMA
	// that drives the ReasonLatency degrade.
	mon *latencyMonitor

	// retryCaps holds each instance's escalated read-retry starting
	// backoff in nanoseconds (0 = Options.ReadRetryBackoff). An instance
	// that needed retries to answer keeps a raised cap so later reads
	// back off from where the episode left them; Recover resets every
	// cap — recovered media must not inherit Degraded-era pessimism.
	retryCaps []atomic.Int64

	writeErrs   metrics.Counter
	readErrs    metrics.Counter
	readRetries metrics.Counter
	recoveries  metrics.Counter
	healthGauge metrics.Gauge
	stalls      metrics.Counter

	// Incremental-checkpoint byte accounting: bytes carried into
	// committed delta checkpoints by hard link vs physically rewritten
	// (new segments, copy fallbacks, and per-checkpoint snapshots).
	ckptLinkedBytes metrics.Counter
	ckptCopiedBytes metrics.Counter

	// Scrub accounting (see scrub.go): files/bytes verified clean,
	// corrupt targets found, and live-log tails healed in place.
	scrubFiles   metrics.Counter
	scrubBytes   metrics.Counter
	scrubCorrupt metrics.Counter
	scrubHealed  metrics.Counter
}

// windowDrain is an in-progress parallel GetWindow drain of one window:
// worker goroutines pull whole instances (each instance is drained by
// exactly one worker, preserving its partition order) and feed the parts
// channel, which successive GetWindow calls pop.
type windowDrain struct {
	parts      chan []KeyValues
	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{} // closed once all workers exited and parts is closed

	mu  sync.Mutex
	err error
}

func (d *windowDrain) stop() {
	d.cancelOnce.Do(func() { close(d.cancel) })
}

func (d *windowDrain) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	d.stop()
}

// Open classifies the operation and deploys the composite store.
func Open(agg AggKind, wk window.Kind, opts Options) (*Store, error) {
	return OpenPattern(Classify(agg, wk), wk, opts)
}

// OpenPattern deploys a composite store with an explicitly chosen
// pattern, e.g. from a user annotation on a custom window (§8).
func OpenPattern(p Pattern, wk window.Kind, opts Options) (*Store, error) {
	opts.fill()
	s := &Store{
		pattern:   p,
		opts:      opts,
		drains:    make(map[window.Window]*windowDrain),
		retryCaps: make([]atomic.Int64, opts.Instances),
	}
	perInstanceBuf := opts.WriteBufferBytes / int64(opts.Instances)
	pred := opts.Predictor
	if pred == nil && opts.Assigner != nil {
		pred = window.PredictorFor(wk, opts.Assigner)
	}
	// Every instance's logs share one I/O policy: the deadline sentinel
	// plus the latency monitor feeding the store's histograms and the
	// EWMA degrade signal.
	s.mon = newLatencyMonitor(s, opts.SlowOpThreshold)
	policy := &logfile.Policy{Deadline: opts.OpDeadline, Monitor: s.mon}
	for i := 0; i < opts.Instances; i++ {
		dir := instDir(opts.Dir, i)
		var (
			inst instance
			err  error
		)
		switch p {
		case PatternAAR:
			var st *aar.Store
			st, err = aar.Open(aar.Options{
				Dir:                dir,
				WriteBufferBytes:   perInstanceBuf,
				LoadPartitionBytes: opts.LoadPartitionBytes,
				FineGrained:        opts.FineGrainedAAR,
				FS:                 opts.FS,
				Breakdown:          opts.Breakdown,
				Policy:             policy,
			})
			if err == nil {
				s.aarView = append(s.aarView, st)
				inst = aarInstance{st}
			}
		case PatternAUR:
			var st *aur.Store
			st, err = aur.Open(aur.Options{
				Dir:                   dir,
				WriteBufferBytes:      perInstanceBuf,
				ReadBatchRatio:        opts.ReadBatchRatio,
				MaxSpaceAmplification: opts.MaxSpaceAmplification,
				Predictor:             pred,
				FS:                    opts.FS,
				Breakdown:             opts.Breakdown,
				Policy:                policy,
			})
			if err == nil {
				s.aurView = append(s.aurView, st)
				inst = aurInstance{st}
			}
		case PatternRMW:
			var st *rmw.Store
			st, err = rmw.Open(rmw.Options{
				Dir:                   dir,
				WriteBufferBytes:      perInstanceBuf,
				MaxSpaceAmplification: opts.MaxSpaceAmplification,
				FS:                    opts.FS,
				Breakdown:             opts.Breakdown,
				Policy:                policy,
			})
			if err == nil {
				s.rmwView = append(s.rmwView, st)
				inst = rmwInstance{st}
			}
		default:
			err = fmt.Errorf("flowkv: unknown pattern %v", p)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.insts = append(s.insts, inst)
	}
	return s, nil
}

// Pattern returns the store pattern chosen at launch.
func (s *Store) Pattern() Pattern { return s.pattern }

// Instances returns m, the number of store instances deployed.
func (s *Store) Instances() int { return s.opts.Instances }

// route picks the instance owning key. The hash is deterministic (not
// per-process seeded) so that a store restored from a checkpoint routes
// keys to the instances that hold their state.
func (s *Store) route(key []byte) int {
	if s.opts.Instances == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(s.opts.Instances))
}

// Append adds a KV tuple to window w. For AUR stores ts feeds the ETT
// estimate; AAR stores ignore it. RMW stores do not support Append.
func (s *Store) Append(key, value []byte, w window.Window, ts int64) error {
	if err := s.guardWrite(); err != nil {
		return err
	}
	switch s.pattern {
	case PatternAAR:
		return s.writeDone(s.aarView[s.route(key)].Append(key, value, w))
	case PatternAUR:
		return s.writeDone(s.aurView[s.route(key)].Append(key, value, w, ts))
	default:
		return ErrWrongPattern
	}
}

// GetWindow returns the next partition of window w's state, or nil when
// the window is exhausted everywhere (AAR only). The first call starts a
// drain that fans the m instances across Options.Parallelism worker
// goroutines; each instance is drained by exactly one worker, so the
// gradual-loading bound (one partition's bytes in memory per instance
// being read, §4.1) scales by at most the parallelism. Partitions from
// different instances interleave in arrival order. Concurrent callers may
// pop partitions of the same window; each partition is delivered once.
func (s *Store) GetWindow(w window.Window) ([]KeyValues, error) {
	if s.pattern != PatternAAR {
		return nil, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	d := s.drains[w]
	if d == nil {
		d = s.startDrain(w)
		s.drains[w] = d
	}
	s.mu.Unlock()

	if part, ok := <-d.parts; ok {
		return part, nil
	}
	// parts closed: the drain finished (exhausted or failed).
	<-d.done
	d.mu.Lock()
	err := d.err
	d.mu.Unlock()
	s.mu.Lock()
	if s.drains[w] == d {
		delete(s.drains, w)
	}
	s.mu.Unlock()
	return nil, err
}

// startDrain launches the worker goroutines draining window w. Caller
// holds s.mu.
func (s *Store) startDrain(w window.Window) *windowDrain {
	workers := s.opts.Parallelism
	if workers > len(s.aarView) {
		workers = len(s.aarView)
	}
	d := &windowDrain{
		parts:  make(chan []KeyValues, workers),
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	var next int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(s.aarView) {
					return
				}
				for {
					select {
					case <-d.cancel:
						return
					default:
					}
					var part []KeyValues
					err := s.readRetry(i, func() error {
						var rerr error
						part, rerr = s.aarView[i].GetWindow(w)
						return rerr
					})
					if err != nil {
						d.fail(err)
						return
					}
					if part == nil {
						break // instance i exhausted; pull the next one
					}
					select {
					case d.parts <- part:
					case <-d.cancel:
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(d.parts)
		close(d.done)
	}()
	return d
}

// stopDrain detaches and cancels window w's drain, if any, and waits for
// its workers to exit.
func (s *Store) stopDrain(w window.Window) {
	s.mu.Lock()
	d := s.drains[w]
	delete(s.drains, w)
	s.mu.Unlock()
	if d == nil {
		return
	}
	d.stop()
	// Discard buffered parts so no worker stays blocked on a full
	// channel (workers also select on cancel, so this is belt and
	// braces for parts already in flight).
	for range d.parts {
	}
	<-d.done
}

// stopAllDrains cancels every in-progress drain (Close/Destroy path).
func (s *Store) stopAllDrains() {
	s.mu.Lock()
	ds := make([]*windowDrain, 0, len(s.drains))
	for _, d := range s.drains {
		ds = append(ds, d)
	}
	s.drains = make(map[window.Window]*windowDrain)
	s.mu.Unlock()
	for _, d := range ds {
		d.stop()
		for range d.parts {
		}
		<-d.done
	}
}

// Get fetches and removes the appended values of (key, w) (AUR only).
// Transient read I/O errors are retried with backoff (maxReadRetries times).
func (s *Store) Get(key []byte, w window.Window) ([][]byte, error) {
	if s.pattern != PatternAUR {
		return nil, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, err
	}
	var vals [][]byte
	inst := s.route(key)
	err := s.readRetry(inst, func() error {
		var rerr error
		vals, rerr = s.aurView[inst].Get(key, w)
		return rerr
	})
	return vals, err
}

// Read returns the appended values of (key, w) without consuming them
// (AUR only) — the probe primitive for interval joins (§8).
func (s *Store) Read(key []byte, w window.Window) ([][]byte, error) {
	if s.pattern != PatternAUR {
		return nil, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, err
	}
	var vals [][]byte
	inst := s.route(key)
	err := s.readRetry(inst, func() error {
		var rerr error
		vals, rerr = s.aurView[inst].Read(key, w)
		return rerr
	})
	return vals, err
}

// GetAggregate fetches and removes the aggregate of (key, w) (RMW only).
func (s *Store) GetAggregate(key []byte, w window.Window) ([]byte, bool, error) {
	if s.pattern != PatternRMW {
		return nil, false, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, false, err
	}
	var (
		agg []byte
		ok  bool
	)
	inst := s.route(key)
	err := s.readRetry(inst, func() error {
		var rerr error
		agg, ok, rerr = s.rmwView[inst].Get(key, w)
		return rerr
	})
	return agg, ok, err
}

// PutAggregate stores the updated aggregate of (key, w) (RMW only).
func (s *Store) PutAggregate(key []byte, w window.Window, agg []byte) error {
	if s.pattern != PatternRMW {
		return ErrWrongPattern
	}
	if err := s.guardWrite(); err != nil {
		return err
	}
	return s.writeDone(s.rmwView[s.route(key)].Put(key, w, agg))
}

// DropWindow discards window w's state in every instance (AAR only). An
// in-progress GetWindow drain of w is cancelled first; concurrent
// GetWindow callers observe the window as exhausted.
func (s *Store) DropWindow(w window.Window) error {
	if s.pattern != PatternAAR {
		return ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return err
	}
	s.stopDrain(w)
	return s.eachInstance(func(i int) error {
		return s.aarView[i].DropWindow(w)
	})
}

// Drop discards the state of (key, w) without reading it (AUR only).
func (s *Store) Drop(key []byte, w window.Window) error {
	if s.pattern != PatternAUR {
		return ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return err
	}
	return s.aurView[s.route(key)].Drop(key, w)
}

// eachInstance runs f(i) for every instance index, fanning across at
// most Options.Parallelism worker goroutines (fanOut).
func (s *Store) eachInstance(f func(i int) error) error {
	return s.fanOut(s.opts.Instances, f)
}

// fanOut runs f(i) for every i in [0, n), fanning across at most
// Options.Parallelism worker goroutines. It returns the first error
// observed; a worker that errors stops pulling further indices, but
// workers already running continue to completion.
func (s *Store) fanOut(n int, f func(i int) error) error {
	workers := s.opts.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Flush spills all instances' buffers to disk (checkpoint support, §8:
// in-memory data is flushed before a snapshot so on-disk files can be
// transferred asynchronously). Instances flush in parallel.
func (s *Store) Flush() error {
	if err := s.guardWrite(); err != nil {
		return err
	}
	return s.writeDone(s.eachInstance(func(i int) error { return s.insts[i].Flush() }))
}

// Sync flushes all instances and fsyncs their logs, making every
// acknowledged write durable. The fan-out across instances runs in
// parallel on the Options.Parallelism pool (eachInstance), and within
// each instance the fsyncs use the split BeginSync/FinishSync protocol,
// so drains and later flushes overlap checkpoint-time syncs instead of
// queueing behind them.
func (s *Store) Sync() error {
	if err := s.guardWrite(); err != nil {
		return err
	}
	return s.writeDone(s.eachInstance(func(i int) error { return s.insts[i].Sync() }))
}

// Stats aggregates evaluation metrics across instances.
type Stats struct {
	// Pattern is the store pattern.
	Pattern Pattern
	// HitRatio is the AUR prefetch hit ratio (0 for other patterns).
	HitRatio float64
	// Hits and Misses are the AUR prefetch-buffer counters.
	Hits, Misses int64
	// Evictions counts AUR prefetch evictions from wrong ETTs.
	Evictions int64
	// Compactions counts, across instances, the cleaning passes of the
	// segmented logs (AUR and RMW) that re-appended at least one record
	// or batch.
	Compactions int64
	// CompactionBytes is the bytes those passes re-appended to survivor
	// segments. SegmentsDropped counts log segments unlinked (emptied by
	// consumption, or cleaned); those three are zero for AAR.
	// LiveSegments is the files the logs currently hold: segments, or
	// AAR's window files.
	CompactionBytes int64
	SegmentsDropped int64
	LiveSegments    int
	// FlushBytes is the bytes write buffers spilled into their logs
	// (evictions and drains; compaction's rewrites are CompactionBytes):
	// framed blocks of aggregates for RMW, of batches for AUR.
	// BufferHits and DiskHits count the units of state fetched-&-removed
	// while wholly in a write buffer, and those that had state on disk —
	// RMW aggregates, AUR (key, window) batches: evicting a full buffer's
	// longest-lived quarter exists to move hits from the second to the
	// first. Not to be confused with Hits/Misses, the AUR prefetch
	// buffer's. All zero for AAR.
	FlushBytes           int64
	BufferHits, DiskHits int64
	// BufferedBytes is the current total write-buffer occupancy.
	BufferedBytes int64
	// DiskBytes is the current total on-disk footprint.
	DiskBytes int64
	// LiveStates is the number of live (key, window) states (AUR/RMW).
	LiveStates int
	// Health is the failure-handling state (see health.go).
	Health Health
	// HealthReason classifies the departure from Healthy: error, stall,
	// or latency (ReasonNone while Healthy).
	HealthReason HealthReason
	// HealthErr describes the first error that left Healthy, "" if none.
	HealthErr string
	// WriteErrors counts write-path I/O failures (each degrades the store).
	WriteErrors int64
	// ReadErrors counts read failures that surfaced after retries.
	ReadErrors int64
	// ReadRetries counts transient read errors absorbed by retry.
	ReadRetries int64
	// Recoveries counts successful Recover calls.
	Recoveries int64
	// CkptLinkedBytes is the total bytes carried into committed
	// checkpoints by hard link (not rewritten) — from the parent, and for
	// RMW from the live segments too;
	// CkptCopiedBytes is the bytes physically written — new segment
	// tails, copy fallbacks, and per-checkpoint snapshot files. Their
	// ratio is the delta saving.
	CkptLinkedBytes int64
	CkptCopiedBytes int64
	// ScrubbedFiles and ScrubbedBytes total the data scrub sweeps have
	// verified clean; ScrubCorrupt counts targets found corrupt and
	// ScrubHealed live-log tails repaired in place (cumulative across
	// sweeps).
	ScrubbedFiles int64
	ScrubbedBytes int64
	ScrubCorrupt  int64
	ScrubHealed   int64
	// Per-op I/O latency quantiles, measured at the logfile descriptors
	// (buffered-write flushes, positional reads, fsyncs) across every
	// instance since open.
	WriteP50, WriteP99 time.Duration
	ReadP50, ReadP99   time.Duration
	SyncP50, SyncP99   time.Duration
	// LatencyEWMA is the rolling write+fsync latency average that
	// drives the ReasonLatency degrade (0 until the first sample).
	LatencyEWMA time.Duration
	// Stalls counts operations abandoned at Options.OpDeadline.
	Stalls int64
}

// Stats returns the store's aggregated evaluation metrics.
func (s *Store) Stats() Stats {
	st := Stats{Pattern: s.pattern}
	st.Health = s.Health()
	st.HealthReason = s.HealthReason()
	if err := s.Err(); err != nil {
		st.HealthErr = err.Error()
	}
	st.Stalls = s.stalls.Load()
	if s.mon != nil {
		s.mon.fillStats(&st)
	}
	st.WriteErrors = s.writeErrs.Load()
	st.ReadErrors = s.readErrs.Load()
	st.ReadRetries = s.readRetries.Load()
	st.Recoveries = s.recoveries.Load()
	st.CkptLinkedBytes = s.ckptLinkedBytes.Load()
	st.CkptCopiedBytes = s.ckptCopiedBytes.Load()
	st.ScrubbedFiles = s.scrubFiles.Load()
	st.ScrubbedBytes = s.scrubBytes.Load()
	st.ScrubCorrupt = s.scrubCorrupt.Load()
	st.ScrubHealed = s.scrubHealed.Load()
	for _, inst := range s.insts {
		inst.addStats(&st)
	}
	if st.Hits+st.Misses > 0 {
		st.HitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return st
}

// Close closes every instance, leaving state on disk. In-progress
// GetWindow drains are cancelled first.
func (s *Store) Close() error {
	s.stopAllDrains()
	var first error
	for _, inst := range s.insts {
		if err := inst.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Destroy closes every instance and deletes all on-disk state.
func (s *Store) Destroy() error {
	s.stopAllDrains()
	var first error
	for _, inst := range s.insts {
		if err := inst.Destroy(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
