package spe

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/metrics"
	"flowkv/internal/statebackend"
)

// Stage is one operator of a pipeline, executed by Parallelism workers.
// Exactly one of Window or Map is set.
type Stage struct {
	// Name labels the stage in reports.
	Name string
	// Parallelism is the worker count (physical operators); default 1.
	Parallelism int
	// Window describes a stateful window operator; NewBackend constructs
	// each worker's private state store instance.
	Window     *OperatorSpec
	NewBackend func(workerID int) (statebackend.Backend, error)
	// Join describes an interval-join operator (uses NewBackend too).
	Join *IntervalJoinSpec
	// Map is a stateless transform; it may emit zero or more tuples.
	Map func(t Tuple, emit func(Tuple))
}

// statefulOperator is what a stage worker drives: window operators and
// interval-join operators share the lifecycle.
type statefulOperator interface {
	OnTuple(Tuple) error
	OnWatermark(wm int64, wallNS int64) error
	Finish(wallNS int64) error
	Backend() statebackend.Backend
}

// Pipeline is a linear dataflow: source -> stages[0] -> ... -> sink.
// (The NEXMark queries used in the evaluation are linear chains of window
// operators; the paper's Figure 1 example likewise.)
type Pipeline struct {
	// Stages in dataflow order.
	Stages []Stage
	// WatermarkEvery emits a source watermark after this many tuples.
	// Default 200.
	WatermarkEvery int
	// StatsEvery, when positive, delivers a StatsReport to OnStats after
	// every StatsEvery source tuples — the runner's periodic health and
	// error surface (store health, write/read error counters).
	StatsEvery int
	// OnStats receives the periodic reports. It is called synchronously
	// from the source-driving goroutine, so it must be fast.
	OnStats func(StatsReport)
}

// Source produces the input stream by calling emit for each tuple, in
// non-decreasing timestamp order (the NEXMark generator's property).
type Source func(emit func(Tuple))

// Halt identifies the failure that stopped a run early: which stage and
// worker hit it, which backend was involved, and the error itself —
// enough to aim recovery (or a bug report) at the right store instead of
// a bare boolean.
type Halt struct {
	// Stage is the name of the stage whose operator failed.
	Stage string
	// Worker is the worker index within the stage (-1 if the failure was
	// not tied to a single worker).
	Worker int
	// Backend is the failing backend's Name(); empty when the failure
	// did not involve a state backend.
	Backend string
	// Err is the error that latched the halt.
	Err error
}

// Error renders the halt for logs.
func (h *Halt) Error() string {
	if h == nil {
		return "<nil>"
	}
	return fmt.Sprintf("stage %s worker %d (backend %s): %v", h.Stage, h.Worker, h.Backend, h.Err)
}

// Unwrap exposes the latched error to errors.Is/As, so callers can key
// on typed causes (core.ErrFailed, ErrCheckpointTimeout) through the
// halt.
func (h *Halt) Unwrap() error {
	if h == nil {
		return nil
	}
	return h.Err
}

// MarshalJSON flattens the halt's error to a string so failed runs stay
// readable in JSON reports (error values marshal to "{}" otherwise).
func (h *Halt) MarshalJSON() ([]byte, error) {
	errStr := ""
	if h.Err != nil {
		errStr = h.Err.Error()
	}
	return json.Marshal(struct {
		Stage   string
		Worker  int
		Backend string
		Err     string
	}{h.Stage, h.Worker, h.Backend, errStr})
}

// BackendStatus is one backend's health snapshot inside a StatsReport.
type BackendStatus struct {
	// Stage and Worker locate the physical operator (-1 for a backend
	// shared by a whole stage).
	Stage  string
	Worker int
	// Backend is the backend's Name().
	Backend string
	// Health is the FlowKV failure-handling state; non-FlowKV backends
	// (which have no degraded mode) always report Healthy.
	Health core.Health
	// HealthErr is the error that moved the store out of Healthy ("" if
	// none).
	HealthErr string
	// WriteErrors, ReadErrors and Recoveries are the store's cumulative
	// failure counters.
	WriteErrors int64
	ReadErrors  int64
	Recoveries  int64
}

// StatsReport is the runner's periodic progress and health report.
type StatsReport struct {
	// TuplesIn is the number of source tuples fed so far.
	TuplesIn int64
	// Backends holds one status per stateful operator backend.
	Backends []BackendStatus
}

// RunResult aggregates a pipeline execution's measurements.
type RunResult struct {
	// TuplesIn is the number of source tuples processed.
	TuplesIn int64
	// Results is the number of tuples that reached the sink.
	Results int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// ThroughputTPS is TuplesIn / Elapsed in tuples per second.
	ThroughputTPS float64
	// Latency holds sink-side event-to-emission latencies.
	Latency *metrics.Histogram
	// Operators aggregates per-stage operator counters.
	Operators []OperatorStats
	// FlowKV aggregates FlowKV store stats when that backend ran.
	FlowKV FlowKVRunStats
	// Backends is the final per-backend health snapshot, taken after the
	// pipeline drained and before backends were released.
	Backends []BackendStatus
	// Halted reports that the run stopped early: a state backend entered
	// the Failed health state (or, in job mode, any operator error
	// occurred) and the remaining tuples were drained unprocessed rather
	// than written into a store that cannot honor acknowledgements. It
	// records which stage, worker and backend failed and with what error;
	// nil means the run completed normally.
	Halted *Halt
	// Err is the first worker error, if any.
	Err error
}

// FlowKVRunStats aggregates FlowKV-specific metrics across workers.
type FlowKVRunStats struct {
	// Hits and Misses are prefetch-buffer counters (Fig. 11b).
	Hits, Misses int64
	// Evictions counts wrong-ETT evictions.
	Evictions int64
	// Compactions counts store compactions.
	Compactions int64
}

// HitRatio returns the aggregate prefetch hit ratio.
func (f FlowKVRunStats) HitRatio() float64 {
	if f.Hits+f.Misses == 0 {
		return 0
	}
	return float64(f.Hits) / float64(f.Hits+f.Misses)
}

// barrier aligns every worker of every stage at one point of the stream
// (Chandy-Lamport style, specialized to a linear dataflow with a paused
// source). The coordinator injects it into stage 0; each stage forwards
// it downstream only after all its workers have reached it, so a barrier
// observed by stage k+1 is provably behind every tuple stage k emitted
// before pausing. When the last stage's workers arrive, aligned closes:
// every channel is drained of pre-barrier traffic and every worker is
// parked on resume, giving the coordinator an exclusive, globally
// consistent cut of operator and store state.
type barrier struct {
	aligned chan struct{} // closed when every worker has arrived
	resume  chan struct{} // closed by the coordinator after the cut
}

func newBarrier() *barrier {
	return &barrier{aligned: make(chan struct{}), resume: make(chan struct{})}
}

// stageRT is the runtime of one stage: its workers' input channels,
// their operators, and the per-stage barrier arrival counter.
type stageRT struct {
	stage Stage
	par   int
	in    []chan Message
	ops   []statefulOperator

	// route maps a key's hash bucket (routeKey(key, par)) to the worker
	// that owns it. nil means identity — bucket w is owned by worker w.
	// Live migration rewrites single entries while every worker is parked
	// at an aligned barrier; the table is persisted in the JOB record so
	// ownership survives restarts (see migrate.go).
	route []int

	barMu sync.Mutex
	barN  int

	// beats counts messages each worker has processed — the progress
	// heartbeat the watchdog reports when a barrier fails to align.
	// atBar marks workers currently parked at a barrier, so the watchdog
	// can name the worker that never arrived (the one wedged in an
	// operator call).
	beats []atomic.Int64
	atBar []atomic.Bool
}

// channelDepth bounds every inter-operator channel, in messages: a
// worker that falls this far behind blocks its upstream, and the
// backpressure reaches the source.
const channelDepth = 256

// runtime is a constructed pipeline: channels wired, backends opened,
// operators built. Run and jobs share it; jobs additionally halt on any
// operator error (haltAll) so no state divergence can be committed.
type runtime struct {
	p       *Pipeline
	wmEvery int
	res     *RunResult
	rts     []*stageRT
	wgs     []*sync.WaitGroup
	haltAll bool

	errMu  sync.Mutex
	halted atomic.Bool

	// abandoned marks a runtime the progress watchdog gave up on: some
	// goroutine (a wedged worker, a hung checkpoint) may still hold its
	// backends, so teardown must not close or destroy them, and collect
	// must not touch operator state. The leaked goroutines die when the
	// hung I/O finally returns (into a poisoned, abandoned descriptor).
	abandoned atomic.Bool

	sink      func(Tuple)
	sinkMu    sync.Mutex
	sinkCount int64

	// Source-side cadence state; jobs restore these from checkpoint
	// metadata so replayed watermarks land between the same tuples.
	tuplesIn int64
	maxTS    int64
	sinceWM  int

	start time.Time
}

// newRuntime builds channels, backends and operators but starts no
// goroutines; start launches the workers. Splitting construction from
// start lets a job validate backends (and restore checkpoints into them)
// while teardown is still a simple destroy loop.
func newRuntime(p *Pipeline, sink func(Tuple), haltAll bool) (*runtime, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("spe: pipeline has no stages")
	}
	r := &runtime{
		p:       p,
		wmEvery: p.WatermarkEvery,
		res:     &RunResult{Latency: metrics.NewHistogram()},
		haltAll: haltAll,
		sink:    sink,
		maxTS:   -1 << 62,
	}
	if r.wmEvery <= 0 {
		r.wmEvery = 200
	}
	r.rts = make([]*stageRT, len(p.Stages))
	for i := range p.Stages {
		st := p.Stages[i]
		par := st.Parallelism
		if par <= 0 {
			par = 1
		}
		rt := &stageRT{stage: st, par: par, in: make([]chan Message, par),
			beats: make([]atomic.Int64, par), atBar: make([]atomic.Bool, par)}
		for w := 0; w < par; w++ {
			rt.in[w] = make(chan Message, channelDepth)
		}
		r.rts[i] = rt
	}
	if err := r.buildOperators(); err != nil {
		r.destroyBackends()
		return nil, err
	}
	return r, nil
}

func (r *runtime) buildOperators() error {
	for i := len(r.rts) - 1; i >= 0; i-- {
		rt := r.rts[i]
		emitTuple, _ := r.sender(i)
		rt.ops = make([]statefulOperator, rt.par)
		if rt.stage.Window == nil && rt.stage.Join == nil {
			continue
		}
		for w := 0; w < rt.par; w++ {
			backend, err := rt.stage.NewBackend(w)
			if err != nil {
				return fmt.Errorf("spe: stage %s worker %d: %w", rt.stage.Name, w, err)
			}
			var op statefulOperator
			if rt.stage.Window != nil {
				op, err = NewWindowOperator(*rt.stage.Window, backend, emitTuple)
			} else {
				op, err = NewIntervalJoinOperator(*rt.stage.Join, backend, emitTuple)
			}
			if err != nil {
				backend.Destroy()
				return err
			}
			rt.ops[w] = op
		}
	}
	return nil
}

// destroyBackends releases every backend built so far (construction
// failure path — no goroutines are running).
func (r *runtime) destroyBackends() {
	for _, rt := range r.rts {
		if rt == nil {
			continue
		}
		for _, op := range rt.ops {
			if op != nil {
				op.Backend().Destroy()
			}
		}
	}
}

func (r *runtime) fail(err error) {
	r.errMu.Lock()
	if r.res.Err == nil {
		r.res.Err = err
	}
	r.errMu.Unlock()
}

// opFail records a worker error and decides whether to halt the run. A
// backend reaching the Failed health state always halts: draining
// without processing beats hammering a dead store. Job mode (haltAll)
// halts on any operator error, because a job must not commit a
// checkpoint past a tuple whose state update was lost — halting and
// resuming from the previous checkpoint replays it instead.
func (r *runtime) opFail(stage string, worker int, op statefulOperator, err error) {
	r.fail(err)
	fatal := errors.Is(err, core.ErrFailed)
	if !fatal && op != nil {
		if h, ok := statebackend.FlowKVHealth(op.Backend()); ok && h == core.Failed {
			fatal = true
		}
	}
	if !fatal && !r.haltAll {
		return
	}
	r.errMu.Lock()
	if r.res.Halted == nil {
		name := ""
		if op != nil {
			name = op.Backend().Name()
		}
		r.res.Halted = &Halt{Stage: stage, Worker: worker, Backend: name, Err: err}
	}
	r.errMu.Unlock()
	r.halted.Store(true)
}

func (r *runtime) deliverSink(t Tuple) {
	r.sinkMu.Lock()
	r.sinkCount++
	if t.WallNS > 0 {
		r.res.Latency.Observe(time.Duration(time.Now().UnixNano() - t.WallNS))
	}
	if r.sink != nil {
		r.sink(t)
	}
	r.sinkMu.Unlock()
}

// sender routes tuples by key hash and broadcasts watermarks to the next
// stage, or delivers to the sink after the last stage.
func (r *runtime) sender(stageIdx int) (func(Tuple), func(int64, int64)) {
	if stageIdx == len(r.rts)-1 {
		return r.deliverSink, func(int64, int64) {}
	}
	next := r.rts[stageIdx+1]
	emitTuple := func(t Tuple) {
		next.in[next.workerFor(t.Key)] <- Message{Tuple: t, WallNS: t.WallNS}
	}
	emitWM := func(wm int64, wallNS int64) {
		for _, ch := range next.in {
			ch <- Message{IsWatermark: true, Watermark: wm, WallNS: wallNS}
		}
	}
	return emitTuple, emitWM
}

// arriveBarrier is the worker side of barrier alignment: count the
// arrival, and if this worker completes the stage, forward the barrier
// downstream (all stage emissions are already enqueued, so FIFO order
// keeps the barrier behind them) or declare global alignment at the last
// stage. Then park until the coordinator finishes its cut.
func (r *runtime) arriveBarrier(stageIdx, w int, b *barrier) {
	rt := r.rts[stageIdx]
	rt.atBar[w].Store(true)
	defer rt.atBar[w].Store(false)
	rt.barMu.Lock()
	rt.barN++
	last := rt.barN == rt.par
	if last {
		rt.barN = 0
	}
	rt.barMu.Unlock()
	if last {
		if stageIdx == len(r.rts)-1 {
			close(b.aligned)
		} else {
			for _, ch := range r.rts[stageIdx+1].in {
				ch <- Message{barrier: b}
			}
		}
	}
	<-b.resume
}

// injectBarrier broadcasts a fresh barrier into stage 0 and blocks until
// every worker of every stage is parked on it. The caller then owns a
// consistent cut; release it with close(b.resume).
//
// With a positive deadline it is the progress watchdog: alignment (and
// the injection sends themselves, which block when a wedged worker has
// let its channel fill) must complete within the deadline, or the run
// halts with a typed *Halt naming the worker that never arrived,
// wrapping ErrProgressStalled. On that path the runtime is marked
// abandoned — the wedged worker may wake later and still owns its
// backend — and a release goroutine unparks the aligned workers if the
// barrier ever completes.
func (r *runtime) injectBarrier(deadline time.Duration) (*barrier, error) {
	b := newBarrier()
	if deadline <= 0 {
		for _, ch := range r.rts[0].in {
			ch <- Message{barrier: b}
		}
		<-b.aligned
		return b, nil
	}
	expired := time.After(deadline)
	for _, ch := range r.rts[0].in {
		select {
		case ch <- Message{barrier: b}:
		case <-expired:
			return nil, r.progressStalled(deadline, b)
		}
	}
	select {
	case <-b.aligned:
		return b, nil
	case <-expired:
		// Alignment may have raced the timer; a completed barrier wins.
		select {
		case <-b.aligned:
			return b, nil
		default:
		}
		return nil, r.progressStalled(deadline, b)
	}
}

// progressStalled latches the watchdog halt: the runtime is abandoned,
// the stuck worker named, and a release goroutine armed so workers
// parked at the half-aligned barrier unpark if it ever completes.
func (r *runtime) progressStalled(deadline time.Duration, b *barrier) error {
	h := r.stuckWorkerHalt(deadline)
	r.errMu.Lock()
	if r.res.Halted == nil {
		r.res.Halted = h
	}
	r.errMu.Unlock()
	r.halted.Store(true)
	r.abandoned.Store(true)
	r.fail(h)
	go func() {
		<-b.aligned
		close(b.resume)
	}()
	return h
}

// stuckWorkerHalt names the first worker not parked at the barrier —
// the one wedged inside an operator call — with its heartbeat count for
// the report. The backend name is what lets a job manager treat the
// stall as a slot failure.
func (r *runtime) stuckWorkerHalt(deadline time.Duration) *Halt {
	for _, rt := range r.rts {
		for w := 0; w < rt.par; w++ {
			if rt.atBar[w].Load() {
				continue
			}
			name := ""
			if op := rt.ops[w]; op != nil {
				name = op.Backend().Name()
			}
			return &Halt{Stage: rt.stage.Name, Worker: w, Backend: name,
				Err: fmt.Errorf("%w: stage %s worker %d never reached the barrier (%d messages processed) within %v",
					ErrProgressStalled, rt.stage.Name, w, rt.beats[w].Load(), deadline)}
		}
	}
	return &Halt{Worker: -1, Err: fmt.Errorf("%w after %v", ErrProgressStalled, deadline)}
}

// abandonDrain tears down an abandoned runtime as far as it safely can:
// stages are closed front to back, each given grace to exit; the first
// stage that fails to drain stops the sweep, leaving its goroutines —
// and every channel downstream of them — alive. Closing further
// channels would turn the wedged worker's eventual wake-up into a send
// on a closed channel; leaking them keeps its recovery path harmless.
func (r *runtime) abandonDrain(grace time.Duration) {
	if grace <= 0 {
		grace = time.Second
	}
	for i, rt := range r.rts {
		for _, ch := range rt.in {
			close(ch)
		}
		exited := make(chan struct{})
		go func(wg *sync.WaitGroup) {
			wg.Wait()
			close(exited)
		}(r.wgs[i])
		select {
		case <-exited:
		case <-time.After(grace):
			return
		}
	}
}

// startWorkers launches the worker goroutines and starts the run clock.
func (r *runtime) startWorkers() {
	for i := len(r.rts) - 1; i >= 0; i-- {
		rt := r.rts[i]
		_, emitWM := r.sender(i)
		var wg sync.WaitGroup
		// Per-stage watermark forwarding: forward min across this stage's
		// workers so downstream sees one consistent, already-combined
		// stage watermark stream.
		fw := newWatermarkForwarder(rt.par, emitWM)
		for w := 0; w < rt.par; w++ {
			wg.Add(1)
			go r.worker(i, w, rt, rt.ops[w], fw, &wg)
		}
		r.wgs = append([]*sync.WaitGroup{&wg}, r.wgs...)
	}
	r.start = time.Now()
}

func (r *runtime) worker(stageIdx, w int, rt *stageRT, op statefulOperator, fw *watermarkForwarder, wg *sync.WaitGroup) {
	defer wg.Done()
	emitTuple, _ := r.sender(stageIdx)
	var lastWM int64 = -1 << 62
	for msg := range rt.in[w] {
		rt.beats[w].Add(1)
		if msg.barrier != nil {
			// Barriers align even while halted, so a coordinator waiting
			// on one is never deadlocked by a concurrent failure.
			r.arriveBarrier(stageIdx, w, msg.barrier)
			continue
		}
		if r.halted.Load() {
			continue // drain unprocessed; upstream never blocks
		}
		if msg.IsWatermark {
			// The upstream forwarder already min-combined across its
			// workers; just reject regressions from emission races.
			if msg.Watermark <= lastWM {
				continue
			}
			wm := msg.Watermark
			lastWM = wm
			if op != nil {
				if err := op.OnWatermark(wm, msg.WallNS); err != nil {
					r.opFail(rt.stage.Name, w, op, err)
				}
			}
			fw.observe(w, wm, msg.WallNS)
			continue
		}
		if op != nil {
			if err := op.OnTuple(msg.Tuple); err != nil {
				r.opFail(rt.stage.Name, w, op, err)
			}
		} else {
			rt.stage.Map(msg.Tuple, emitTuple)
		}
	}
	if op != nil && !r.halted.Load() {
		if err := op.Finish(time.Now().UnixNano()); err != nil {
			r.opFail(rt.stage.Name, w, op, err)
		}
	}
}

// feed routes one source tuple into stage 0, emitting the periodic
// watermark and stats report on cadence.
func (r *runtime) feed(t Tuple) {
	if r.halted.Load() {
		return // backend failed: stop feeding the pipeline
	}
	if t.WallNS == 0 {
		t.WallNS = time.Now().UnixNano()
	}
	if t.TS > r.maxTS {
		r.maxTS = t.TS
	}
	first := r.rts[0]
	first.in[first.workerFor(t.Key)] <- Message{Tuple: t, WallNS: t.WallNS}
	r.tuplesIn++
	r.sinceWM++
	if r.sinceWM >= r.wmEvery {
		r.sinceWM = 0
		wm := r.maxTS // in-order source: everything up to maxTS is final
		wall := time.Now().UnixNano()
		for _, ch := range first.in {
			ch <- Message{IsWatermark: true, Watermark: wm, WallNS: wall}
		}
	}
	if r.p.StatsEvery > 0 && r.p.OnStats != nil && r.tuplesIn%int64(r.p.StatsEvery) == 0 {
		r.p.OnStats(StatsReport{TuplesIn: r.tuplesIn, Backends: r.backendStatuses()})
	}
}

// backendStatuses snapshots every stateful backend's health. core.Store
// counters are safe to read concurrently with the workers.
func (r *runtime) backendStatuses() []BackendStatus {
	var out []BackendStatus
	for _, rt := range r.rts {
		for w, op := range rt.ops {
			if op == nil {
				continue
			}
			b := op.Backend()
			bs := BackendStatus{Stage: rt.stage.Name, Worker: w, Backend: b.Name()}
			if st, ok := statebackend.FlowKVStats(b); ok {
				bs.Health = st.Health
				bs.HealthErr = st.HealthErr
				bs.WriteErrors = st.WriteErrors
				bs.ReadErrors = st.ReadErrors
				bs.Recoveries = st.Recoveries
			}
			out = append(out, bs)
		}
	}
	return out
}

// drain closes the stages front to back, waiting for each to empty.
func (r *runtime) drain() {
	for i, rt := range r.rts {
		for _, ch := range rt.in {
			close(ch)
		}
		r.wgs[i].Wait()
	}
}

// collect finalizes the result: throughput, operator counters, the final
// backend health snapshot, and FlowKV aggregates. destroy selects
// whether backends are destroyed (benchmark runs discard state) or
// closed (jobs leave durable state for the next resume).
func (r *runtime) collect(destroy bool) *RunResult {
	res := r.res
	res.Elapsed = time.Since(r.start)
	res.TuplesIn = r.tuplesIn
	r.sinkMu.Lock()
	res.Results = r.sinkCount
	r.sinkMu.Unlock()
	if res.Elapsed > 0 {
		res.ThroughputTPS = float64(r.tuplesIn) / res.Elapsed.Seconds()
	}
	if r.abandoned.Load() {
		// A wedged goroutine may still own operators and backends:
		// touching either (stats, Close, Destroy) would race its eventual
		// wake-up. The halt in res carries everything the caller needs.
		return res
	}
	res.Backends = r.backendStatuses()

	for _, rt := range r.rts {
		var agg OperatorStats
		for _, op := range rt.ops {
			if op == nil {
				continue
			}
			switch typed := op.(type) {
			case *WindowOperator:
				st := typed.Stats()
				agg.ResultsEmitted += st.ResultsEmitted
				agg.LateDropped += st.LateDropped
				agg.TriggersFired += st.TriggersFired
			case *IntervalJoinOperator:
				st := typed.Stats()
				agg.ResultsEmitted += st.Results
				agg.LateDropped += st.LateDropped
			}
			b := op.Backend()
			if fs, ok := statebackend.FlowKVStats(b); ok {
				res.FlowKV.Hits += fs.Hits
				res.FlowKV.Misses += fs.Misses
				res.FlowKV.Evictions += fs.Evictions
				res.FlowKV.Compactions += fs.Compactions
			}
			var err error
			if destroy {
				err = b.Destroy()
			} else {
				err = b.Close()
			}
			if err != nil {
				r.fail(err)
			}
		}
		res.Operators = append(res.Operators, agg)
	}
	return res
}

// Run executes the pipeline to completion over the source and returns
// the measurements. Results reaching the end of the last stage are
// delivered to sink (which may be nil).
func Run(p *Pipeline, source Source, sink func(Tuple)) (*RunResult, error) {
	r, err := newRuntime(p, sink, false)
	if err != nil {
		return nil, err
	}
	r.startWorkers()
	source(r.feed)
	r.drain()
	res := r.collect(true)
	return res, res.Err
}

func routeKey(key []byte, par int) int {
	if par == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(par))
}

// workerFor resolves a key to its owning worker: hash bucket first, then
// the stage's routing table (identity when nil). Join stages route by
// the tuple key, which is the user key — side tagging happens inside the
// operator, below this dispatch.
func (rt *stageRT) workerFor(key []byte) int {
	w := routeKey(key, rt.par)
	if rt.route != nil {
		return rt.route[w]
	}
	return w
}

// watermarkForwarder forwards the minimum watermark across a stage's
// workers downstream, so the next stage observes one consistent stage
// watermark per round.
type watermarkForwarder struct {
	mu   sync.Mutex
	wms  []int64
	last int64
	emit func(int64, int64)
}

func newWatermarkForwarder(workers int, emit func(int64, int64)) *watermarkForwarder {
	wms := make([]int64, workers)
	for i := range wms {
		wms[i] = -1 << 62
	}
	return &watermarkForwarder{wms: wms, last: -1 << 62, emit: emit}
}

func (f *watermarkForwarder) observe(worker int, wm int64, wallNS int64) {
	f.mu.Lock()
	if wm > f.wms[worker] {
		f.wms[worker] = wm
	}
	min := f.wms[0]
	for _, v := range f.wms[1:] {
		if v < min {
			min = v
		}
	}
	advanced := min > f.last
	if advanced {
		f.last = min
	}
	f.mu.Unlock()
	if advanced {
		f.emit(min, wallNS)
	}
}
