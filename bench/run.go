package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

// Config selects what one invocation measures.
type Config struct {
	// Seed makes the input: the same seed gives the same events.
	Seed int64
	// Seconds is the measuring time per workload on the reference host:
	// half closed loop (sat), half open loop (paced). Event counts are
	// derived from it and the workload's frozen rates, so they are exact.
	Seconds float64
	// Trace selects the traced run: per-layer metrics, spans, the ladder.
	Trace bool
	// Quick selects the smoke sizes: a small block and a token ladder.
	Quick bool
	// FullLadder asks a traced run for the full-size ladder.
	FullLadder bool
	// OutDir receives result files; state lives under OutDir/state.
	OutDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (c *Config) fill() {
	if c.Seconds <= 0 {
		c.Seconds = 20
	}
	if c.OutDir == "" {
		c.OutDir = filepath.Join("bench", "out")
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// blockEvents is the size of the pre-generated NEXMark block.
func (c *Config) blockEvents() int {
	if c.Quick {
		return 100_000
	}
	return 500_000
}

// ladderSize is the number of backend ops the ladder records and how
// often each rung replays them.
func (c *Config) ladderSize() (ops, repeats int) {
	switch {
	case c.Quick:
		return 2_000, 1
	case c.FullLadder:
		return 200_000, 5
	default:
		return 20_000, 3
	}
}

// QuickConfig shrinks cfg to a smoke run: every workload, every phase,
// every check, in about ten seconds.
func QuickConfig(cfg Config) Config {
	cfg.Seconds, cfg.Quick = 1.5, true
	return cfg
}

const (
	// phaseRepeats is how often each timed phase runs, on fresh state;
	// metrics report the median with min and max.
	phaseRepeats = 3
	// setupRepeats is how often set-up (generate, adapt, open) runs.
	setupRepeats = 9
	// recoveryCycles is the number of kill/resume cycles of a job.
	recoveryCycles = 5
)

// WorkloadResult is everything one workload reported.
type WorkloadResult struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Event counts, exact for a given -seconds.
	BlockTuples    int     `json:"block_tuples"`
	SatTuples      int64   `json:"sat_tuples_per_repeat"`
	PacedTuples    int64   `json:"paced_tuples_per_repeat"`
	RecoveryTuples int64   `json:"recovery_tuples,omitempty"`
	PacedRate      float64 `json:"paced_rate_per_s"`
	SLOMs          float64 `json:"slo_limit_ms"`

	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer,omitempty"`

	// Attempted is the number of results the oracle expected over every
	// checked run; Failed the number missing, extra or different, plus
	// all results of a run that returned an error.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	OracleS   float64  `json:"oracle_s"`
	WallS     float64  `json:"wall_s"`

	spans        []Span
	spansDropped int64
	ladder       []LadderRung
}

// layers is the traced run's instrumentation, shared by the traced
// repeats of one workload.
type layers struct {
	tr  *tracer
	fs  *countFS
	tot *backendTotals
}

// repeat is what one run of a workload's pipelines measured.
type repeat struct {
	tuples    int64
	wall, cpu time.Duration
	wchar     int64
	diskBytes int64
	allocB    uint64
	allocs    uint64
	gcCPU     float64
	workers   int

	expected int64 // results the oracle expects
	got      int64
	failed   int64
	errs     []string

	latMs   []float64 // paced: due time -> sink
	lagMs   []float64 // paced: how late each batch was released
	backlog float64   // paced: events owed when the source ended
	gapsMs  []float64 // commit gaps
	held    time.Duration

	recoveriesMs, restoresMs, seeksMs []float64
	tenants                           []jobmanager.Stats
}

// env is one workload's run: its block, state root and oracle results.
type env struct {
	w    *Workload
	cfg  Config
	blk  *Block
	root string
	seq  int
	// every is the barrier cadence in force (CheckpointEvery scaled down
	// for short runs).
	every int
	// expected[stream][n] is the digest of stream's results over its
	// first n tuples.
	expected []map[int64]Digest
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.cfg.Log, "  %-18s "+format+"\n", append([]any{e.w.Name}, args...)...)
}

func (e *env) nextDir(label string) string {
	e.seq++
	return filepath.Join(e.root, fmt.Sprintf("%02d-%s", e.seq, label))
}

// setup is what a user pays before the first tuple: generate the block,
// adapt it to tuples, and open (then discard) every store.
func (e *env) setup() (*Block, error) {
	dir := e.nextDir("setup")
	defer os.RemoveAll(dir)
	var blk *Block
	for _, qs := range e.w.Queries {
		q, err := e.w.build(qs, dir, nil, nil)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			blk = NewBlock(e.cfg.Seed, e.cfg.blockEvents(), e.w.BidderKeys, q.Adapt)
		}
		for _, st := range q.Pipeline.Stages {
			for w := 0; st.NewBackend != nil && w < max(st.Parallelism, 1); w++ {
				b, err := st.NewBackend(w)
				if err != nil {
					return nil, err
				}
				if err := b.Destroy(); err != nil {
					return nil, err
				}
			}
		}
	}
	return blk, nil
}

// run drives one repeat on fresh state: n tuples in total, split evenly
// over the workload's streams, closed loop (rate 0) or paced at rate
// tuples per second in total. kill, for a job, is the number of tuples
// after which each of recoveryCycles runs is killed before the job is
// resumed to completion.
func (e *env) run(label string, n int64, rate float64, ly *layers, kill int64) *repeat {
	dir := e.nextDir(label)
	defer os.RemoveAll(dir)
	streams := len(e.w.Queries)
	per := n / int64(streams)
	rep := &repeat{tuples: per * int64(streams)}

	var fsys faultfs.FS = faultfs.OS
	if ly != nil {
		fsys = ly.fs
	}
	srcs := make([]*blockSource, streams)
	taps := make([]*sinkTap, streams)
	var srcEnd [maxStreams]atomic.Int64
	var duTime time.Duration
	for i := range srcs {
		i := i
		srcs[i] = newBlockSource(e.blk, per)
		taps[i] = &sinkTap{paced: rate > 0}
		if rate > 0 {
			srcs[i].pace = newPacer(rate / float64(streams))
		}
		if ly != nil {
			srcs[i].probe.tr, srcs[i].probe.stream = ly.tr, i
		}
		srcs[i].onEOF = func() { srcEnd[i].Store(time.Now().UnixNano()) }
		if i == 0 && rate == 0 {
			// The footprint a user must provision for: the largest seen at
			// evenly spaced points of the input. (At the very end alone it
			// is an accident of where the input stops: an AAR store holds
			// nothing on disk just after a window fired.) The walk's own
			// time is taken out of the measured wall time.
			srcs[i].nextSample = per / diskSamples
			srcs[i].onSample = func() {
				t0 := time.Now()
				rep.diskBytes = max(rep.diskBytes, diskUsage(dir))
				duTime += time.Since(t0)
			}
		}
		rep.expected += e.expected[i][per].Count
	}
	wrapFor := func(stream int) func(statebackend.Backend, string) statebackend.Backend {
		if ly == nil {
			return nil
		}
		return func(b statebackend.Backend, dir string) statebackend.Backend {
			return ly.tr.traceBackend(b, dir, stream, ly.tot)
		}
	}

	digests := make([]Digest, streams)
	before := sampleProc()
	var err error
	switch e.w.Mode {
	case modeRun:
		err = e.runPlain(dir, fsys, wrapFor(0), srcs[0], taps[0], rep)
		digests[0] = taps[0].digest
	case modeJob:
		digests[0], err = e.runJob(dir, fsys, wrapFor(0), srcs[0], taps[0], rep, kill)
	case modeTenants:
		err = e.runTenants(dir, fsys, wrapFor, srcs, taps, digests, rep)
	}
	after := sampleProc()

	rep.wall = after.at.Sub(before.at) - duTime
	rep.cpu = after.cpu - before.cpu
	rep.wchar = after.wchar - before.wchar
	rep.allocB, rep.allocs = after.allocBytes-before.allocBytes, after.allocs-before.allocs
	rep.gcCPU = after.gcCPU - before.gcCPU

	if err != nil {
		rep.errs = append(rep.errs, fmt.Sprintf("%s: %v", label, err))
		rep.failed = rep.expected
	}
	for i, d := range digests {
		want := e.expected[i][per]
		rep.got += d.Count
		if err == nil && d != want {
			miss := want.Count - d.Count
			if miss < 0 {
				miss = -miss
			}
			rep.failed += max(miss, 1)
			rep.errs = append(rep.errs, fmt.Sprintf("%s: stream %d results differ from the oracle: got %+v, want %+v", label, i, d, want))
		}
	}
	for i, s := range srcs {
		for _, g := range s.probe.gaps {
			rep.gapsMs = append(rep.gapsMs, ms(g))
		}
		rep.held += s.probe.held
		for j := range s.probe.recoveries {
			rep.recoveriesMs = append(rep.recoveriesMs, ms(s.probe.recoveries[j]))
			rep.restoresMs = append(rep.restoresMs, ms(s.probe.restores[j]))
			rep.seeksMs = append(rep.seeksMs, ms(s.probe.seeks[j]))
		}
		if s.pace != nil && len(s.pace.due) > 0 {
			rep.latMs = append(rep.latMs, taps[i].latenciesMs(s.pace, srcEnd[i].Load())...)
			rep.lagMs = append(rep.lagMs, s.pace.lagsMs()...)
			rep.backlog += s.pace.backlogEvents()
		}
	}
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (e *env) runPlain(dir string, fsys faultfs.FS, wrap func(statebackend.Backend, string) statebackend.Backend, src *blockSource, tap *sinkTap, rep *repeat) error {
	q, err := e.w.build(e.w.Queries[0], filepath.Join(dir, "state"), fsys, wrap)
	if err != nil {
		return err
	}
	rep.workers = statefulWorkers(q.Pipeline)
	_, err = spe.Run(q.Pipeline, src.Emit, tap.observe)
	return err
}

// ledgerDigest fingerprints a job's committed sink ledger.
func ledgerDigest(jobDir string) (Digest, error) {
	var d Digest
	recs, err := spe.ReadLedger(nil, jobDir)
	for _, r := range recs {
		d.add(r.Key, r.TS, r.Value)
	}
	return d, err
}

func (e *env) runJob(dir string, fsys faultfs.FS, wrap func(statebackend.Backend, string) statebackend.Backend, src *blockSource, tap *sinkTap, rep *repeat, kill int64) (Digest, error) {
	q, err := e.w.build(e.w.Queries[0], filepath.Join(dir, "state"), fsys, wrap)
	if err != nil {
		return Digest{}, err
	}
	rep.workers = statefulWorkers(q.Pipeline)
	q.Pipeline.Stages = append(q.Pipeline.Stages, tap.stage())
	job := &spe.Job{
		Pipeline:          q.Pipeline,
		Source:            src,
		Dir:               filepath.Join(dir, "job"),
		FS:                fsys,
		CheckpointEvery:   e.every,
		RetainGenerations: 2,
		KillAfterTuples:   kill,
	}
	src.probe.every = int64(e.every)
	res, err := job.Run()
	for cycle := 1; kill > 0 && errors.Is(err, spe.ErrJobKilled); cycle++ {
		if cycle == recoveryCycles {
			job.KillAfterTuples = 0
		}
		src.probe.resumeAt = time.Now()
		res, err = job.Resume()
	}
	if err != nil {
		return Digest{}, err
	}
	if !res.Final {
		return Digest{}, fmt.Errorf("job ended without its final commit")
	}
	return ledgerDigest(job.Dir)
}

func (e *env) runTenants(dir string, fsys faultfs.FS, wrapFor func(int) func(statebackend.Backend, string) statebackend.Backend, srcs []*blockSource, taps []*sinkTap, digests []Digest, rep *repeat) error {
	slots := make([]jobmanager.Slot, 2)
	for i := range slots {
		id := fmt.Sprintf("slot%d", i)
		slots[i] = jobmanager.Slot{ID: id, Dir: filepath.Join(dir, id), FS: fsys}
	}
	m, err := jobmanager.New(jobmanager.Options{Dir: filepath.Join(dir, "mgr"), Slots: slots})
	if err != nil {
		return err
	}
	// Quotas are metered but sized never to bind: twice the arrival rate
	// when paced, effectively unbounded in the closed loop (where any
	// finite quota would cap the thing being measured).
	quota := jobmanager.Quota{IngestEPS: 1e9, WriteBPS: 1e12}
	if p := srcs[0].pace; p != nil {
		quota = jobmanager.Quota{IngestEPS: 2 * p.rate, WriteBPS: 2 * p.rate * 64}
	}
	ids := make([]string, len(srcs))
	for i, qs := range e.w.Queries {
		q, err := e.w.build(qs, "", fsys, nil)
		if err != nil {
			return err
		}
		rep.workers += statefulWorkers(q.Pipeline)
		id := fmt.Sprintf("t%d-%s", i, qs.Query)
		ids[i] = id
		var make func(jobmanager.Slot, int, int) (statebackend.Backend, error)
		for si := range q.Pipeline.Stages {
			st := &q.Pipeline.Stages[si]
			if st.Window == nil {
				continue
			}
			st.NewBackend = nil // the manager places stores on its slots
			agg := core.AggIncremental
			if st.Window.IsHolistic() {
				agg = core.AggHolistic
			}
			make = jobmanager.FlowKVBackend(id, agg, st.Window.Assigner.Kind(), st.Window.Assigner, e.w.storeOptions(fsys))
		}
		if wrap := wrapFor(i); wrap != nil {
			open := make
			make = func(slot jobmanager.Slot, stage, worker int) (statebackend.Backend, error) {
				b, err := open(slot, stage, worker)
				if err != nil {
					return nil, err
				}
				// The per-worker layout of jobmanager.FlowKVBackend.
				return wrap(b, filepath.Join(slot.Dir, id, fmt.Sprintf("s%02d-w%02d", stage, worker))), nil
			}
		}
		q.Pipeline.Stages = append(q.Pipeline.Stages, taps[i].stage())
		srcs[i].probe.every = int64(e.every)
		err = m.Submit(jobmanager.Tenant{
			ID: id, Quota: quota, Source: srcs[i], Pipeline: q.Pipeline,
			MakeBackend: make, CheckpointEvery: e.every,
		})
		if err != nil {
			return err
		}
	}
	results := m.Wait()
	rep.tenants, _ = m.Snapshot()
	for i, id := range ids {
		r := results[id]
		if r.Err != nil {
			return fmt.Errorf("tenant %s: %w", id, r.Err)
		}
		if digests[i], err = ledgerDigest(filepath.Join(m.TenantDir(id), "job")); err != nil {
			return err
		}
	}
	return nil
}

// plan is a workload's exact event counts for one configuration.
type plan struct {
	streams int64
	// Tuples per run, in total over the streams.
	warm, sat, paced, rec int64
	// every is the barrier cadence; kill the tuples after which each
	// recovery cycle's run dies.
	every int
	kill  int64
}

func planFor(w *Workload, cfg Config) plan {
	// Shorter runs than the reference 20 s commit proportionally more
	// often, so a smoke run still crosses barriers.
	scale := math.Min(1, cfg.Seconds/20)
	p := plan{streams: int64(len(w.Queries)), every: max(1000, int(float64(w.CheckpointEvery)*scale))}
	even := func(n float64) int64 { return max(int64(n)/p.streams, 1) * p.streams }
	p.sat = even(w.SatRate * cfg.Seconds / 2 / phaseRepeats)
	p.paced = even(w.PacedRate * cfg.Seconds / 2 / phaseRepeats)
	p.warm = min(even(w.SatRate*scale), p.sat)
	if w.Mode == modeJob {
		// Each killed run commits twice and dies half a barrier later.
		p.kill = int64(p.every) * 5 / 2
		p.rec = int64(p.every) * 2 * (recoveryCycles + 1)
	}
	return p
}

// cuts are the per-stream stream lengths the oracle must answer for.
func (p plan) cuts() []int64 {
	return sortedUnique(p.warm/p.streams, p.sat/p.streams, p.paced/p.streams, p.rec/p.streams)
}

// RunWorkload measures one workload end to end (and, with cfg.Trace,
// layer by layer) and checks every run's results against the oracle.
func RunWorkload(w *Workload, cfg Config) (*WorkloadResult, error) {
	cfg.fill()
	start := time.Now()
	e := &env{w: w, cfg: cfg, root: filepath.Join(cfg.OutDir, "state", w.Name)}
	if err := os.RemoveAll(e.root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.root)

	pl := planFor(w, cfg)
	e.every = pl.every

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		blk, err := e.setup()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.blk = blk
	}

	nWarm, nSat, nPaced, nRec, kill := pl.warm, pl.sat, pl.paced, pl.rec, pl.kill
	res := &WorkloadResult{
		Workload: w.Name, Why: w.Why, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		BlockTuples: e.blk.Len(), SatTuples: nSat, PacedTuples: nPaced, RecoveryTuples: nRec,
		PacedRate: w.PacedRate, SLOMs: w.SLOMs,
	}

	t0 := time.Now()
	cuts := pl.cuts()
	for _, qs := range w.Queries {
		ds, err := expect(qs.Model, qs.WindowMs, e.blk, cuts)
		if err != nil {
			return nil, err
		}
		byN := map[int64]Digest{}
		for i, c := range cuts {
			byN[c] = ds[i]
		}
		e.expected = append(e.expected, byN)
	}
	if err := checkGolden(w, cfg, e.expected); err != nil {
		return nil, err
	}
	res.OracleS = time.Since(t0).Seconds()
	e.logf("set-up %.3fs  oracle %.3fs  block %d tuples  sat %d  paced %d @ %.0f/s", median(setups), res.OracleS, e.blk.Len(), nSat, nPaced, w.PacedRate)

	var ly *layers
	if cfg.Trace {
		tr := newTracer()
		ly = &layers{tr: tr, fs: newCountFS(faultfs.OS, tr), tot: &backendTotals{}}
	}
	check := func(rep *repeat) {
		res.Attempted += rep.expected
		res.Failed += rep.failed
		res.Errors = append(res.Errors, rep.errs...)
	}

	check(e.run("warm", nWarm, 0, nil, 0))
	var sat, paced, plain []*repeat // plain: the traced run's untraced sat repeats
	for i := 0; i < phaseRepeats; i++ {
		l := ly
		if cfg.Trace && i == 0 {
			l = nil // the untraced reference for trace.overhead_frac
		}
		rep := e.run(fmt.Sprintf("sat%d", i), nSat, 0, l, 0)
		check(rep)
		if cfg.Trace && l == nil {
			plain = append(plain, rep)
		} else {
			sat = append(sat, rep)
		}
		e.logf("sat %d: %.0f ev/s  %d commits", i, float64(rep.tuples)/rep.wall.Seconds(), len(rep.gapsMs))
	}
	pacedRepeats := phaseRepeats
	if cfg.Trace {
		pacedRepeats-- // its time goes to the ladder
	}
	for i := 0; i < pacedRepeats; i++ {
		rep := e.run(fmt.Sprintf("paced%d", i), nPaced, w.PacedRate, ly, 0)
		check(rep)
		paced = append(paced, rep)
		e.logf("paced %d: p25 %.2f  p50 %.2f  p75 %.2f  p95 %.2f  p99 %.2f ms  over %d results", i, quantile(rep.latMs, 0.25),
			quantile(rep.latMs, 0.5), quantile(rep.latMs, 0.75), quantile(rep.latMs, 0.95), quantile(rep.latMs, 0.99), len(rep.latMs))
	}
	var rec *repeat
	if nRec > 0 {
		rec = e.run("recovery", nRec, 0, ly, kill)
		check(rec)
		e.logf("recovery: %.1f ms median of %d", median(rec.recoveriesMs), len(rec.recoveriesMs))
	}

	res.EndToEnd = e.endToEnd(setups, sat, paced, rec, res)
	if cfg.Trace {
		ops, repeats := cfg.ladderSize()
		ladder, err := RunLadder(w, e.blk, e.root, ops, repeats)
		if err != nil {
			return nil, err
		}
		res.ladder = ladder
		res.PerLayer = e.perLayer(ly, plain, sat, paced, rec, ladder)
		res.spans, res.spansDropped = ly.tr.spans, ly.tr.dropped
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func sortedUnique(v ...int64) []int64 {
	var out []int64
	for _, x := range v {
		if x <= 0 {
			continue
		}
		i := 0
		for i < len(out) && out[i] < x {
			i++
		}
		if i < len(out) && out[i] == x {
			continue
		}
		out = append(out[:i], append([]int64{x}, out[i:]...)...)
	}
	return out
}

// Run measures the given workloads in order and assembles the report.
func Run(workloads []*Workload, cfg Config, ablate bool) (*Report, error) {
	cfg.fill()
	state := filepath.Join(cfg.OutDir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	rep := &Report{Benchmark: "flowkvbench", Host: hostInfo(state), Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace}
	for _, w := range workloads {
		fmt.Fprintf(cfg.Log, "%s\n", w.Name)
		r, err := RunWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	if ablate {
		rows, err := RunAblation(cfg)
		if err != nil {
			return nil, err
		}
		rep.Ablation = rows
	}
	return rep, nil
}
