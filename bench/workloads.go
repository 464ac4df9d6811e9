package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/harness"
	"flowkv/internal/nexmark/queries"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

// How a workload's pipelines are executed.
type mode int

const (
	modeRun     mode = iota // spe.Run: no checkpoints
	modeJob                 // spe.Job: checkpointed, resumable
	modeTenants             // one jobmanager.Manager, one tenant per query
)

// QuerySpec is one NEXMark query of a workload with the oracle model
// that states what it must output.
type QuerySpec struct {
	Query    string
	WindowMs int64
	Par      int
	Model    model
}

// Workload is one named set of inputs and settings. Names are
// permanent: later changes are judged by them.
type Workload struct {
	Name string
	Why  string
	Mode mode
	// Queries holds one query, or one per tenant.
	Queries []QuerySpec
	// BidderKeys widens the generator's cold-bidder key space
	// (ExtraBidderKeys). With the default a 25 s-gap session almost never
	// ends before the stream does, because every bidder of a 500 000-event
	// block bids again within the gap; four times the keys makes sessions
	// end throughout the run, so latency has steady-state samples.
	BidderKeys int
	// Spill selects harness.ScaledStoreOptions (256 KiB write buffer,
	// m=2) so state does not fit memory; otherwise the store keeps its
	// default 64 MiB buffer and state fits.
	Spill bool
	// OpDeadline and SlowOpThreshold are the store's gray-failure knobs
	// (0 = off).
	OpDeadline      time.Duration
	SlowOpThreshold time.Duration
	// CheckpointEvery is the barrier cadence in source tuples (jobs and
	// tenants).
	CheckpointEvery int

	// Frozen on the seed, on the 2-core reference host (README.md,
	// "Measured on the seed"). SatRate, the slowest median closed-loop rate
	// a set of ten runs showed, to 2 significant digits, sizes the sat
	// phase so it runs for about half of -seconds; PacedRate, half of it,
	// is the open-loop arrival rate; SLOMs is the latency limit, 5x the
	// seed's paced p95 rounded up to a 1-2-5 value.
	SatRate   float64
	PacedRate float64
	SLOMs     float64

	// Ablation variants only (see ablate.go): tweak edits the store
	// options; scrubEvery, when positive, opens every store with a
	// background scrubber sweeping at that interval.
	tweak      func(*core.Options)
	scrubEvery time.Duration
}

// Workloads are the four workloads, in reporting order.
var Workloads = []*Workload{
	{
		Name: "aar_fixed_spill",
		Why:  "Q7 max over 125 s tumbling windows via spe.Run, state 8x the write buffer: AAR log appends, framing and GetWindow gradual loading; aur, rmw, checkpoint and jobmanager code idle",
		Mode: modeRun, Spill: true,
		Queries: []QuerySpec{{Query: "Q7", WindowMs: 125_000, Par: 2, Model: modelFixedMax}},
		SatRate: 1_700_000, PacedRate: 850_000, SLOMs: 100,
	},
	{
		Name: "aur_session_spill",
		Why:  "Q11-Median per 25 s-gap session via spe.Run under spill: AUR index log, ETT prediction, predictive batch read, integrated compaction; the slowest seed path; aar, rmw idle",
		Mode: modeRun, Spill: true, BidderKeys: 4,
		Queries: []QuerySpec{{Query: "Q11-Median", WindowMs: 25_000, Par: 2, Model: modelSessionMedian}},
		SatRate: 93_000, PacedRate: 46_000, SLOMs: 500,
	},
	{
		Name: "rmw_session_job",
		Why:  "Q11 count per 25 s-gap session as a checkpointed spe.Job, deadlines on, kill/resume cycles: a write-path gain bought with deferred syncs shows its price in commit and recovery time",
		Mode: modeJob, Spill: true, BidderKeys: 4,
		Queries:         []QuerySpec{{Query: "Q11", WindowMs: 25_000, Par: 2, Model: modelSessionCount}},
		OpDeadline:      2 * time.Second,
		SlowOpThreshold: 250 * time.Millisecond,
		CheckpointEvery: 50_000,
		SatRate:         250_000, PacedRate: 120_000, SLOMs: 500,
	},
	{
		Name: "tenants_mixed_fit",
		Why:  "two jobmanager tenants (Q7, Q11 at 1 s windows) whose state fits the write buffers: spe channels, admission and commit cadence dominate; a store-internals change should show nothing",
		Mode: modeTenants,
		Queries: []QuerySpec{
			{Query: "Q7", WindowMs: 1_000, Par: 1, Model: modelFixedMax},
			{Query: "Q11", WindowMs: 1_000, Par: 1, Model: modelSessionCount},
		},
		OpDeadline:      2 * time.Second,
		CheckpointEvery: 20_000,
		SatRate:         540_000, PacedRate: 270_000, SLOMs: 100,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// storeOptions returns the FlowKV options every store of the workload
// opens with, on the given filesystem seam.
func (w *Workload) storeOptions(fsys faultfs.FS) core.Options {
	o := core.Options{Instances: 2}
	if w.Spill {
		o = harness.ScaledStoreOptions().FlowKV
	}
	o.OpDeadline, o.SlowOpThreshold = w.OpDeadline, w.SlowOpThreshold
	o.FS = fsys
	if w.tweak != nil {
		w.tweak(&o)
	}
	return o
}

// build constructs query qs over the workload's FlowKV stores under dir,
// on filesystem seam fsys. wrap, when non-nil, wraps each worker's
// backend (the traced run's seam) and is told the directory the store
// lives in.
func (w *Workload) build(qs QuerySpec, dir string, fsys faultfs.FS, wrap func(b statebackend.Backend, dir string) statebackend.Backend) (*queries.Query, error) {
	q, err := queries.Build(qs.Query, queries.Config{
		Backend: statebackend.KindFlowKV, BaseDir: dir, Parallelism: qs.Par, WindowMs: qs.WindowMs, FlowKV: w.storeOptions(fsys),
	})
	if err != nil || (wrap == nil && w.scrubEvery == 0) {
		return q, err
	}
	for i := range q.Pipeline.Stages {
		st := &q.Pipeline.Stages[i]
		if st.NewBackend == nil {
			continue
		}
		open, name, spec := st.NewBackend, st.Name, st.Window
		st.NewBackend = func(worker int) (statebackend.Backend, error) {
			// The per-worker layout of queries.Build.
			storeDir := filepath.Join(dir, name, fmt.Sprintf("worker-%02d", worker))
			var b statebackend.Backend
			var err error
			if w.scrubEvery > 0 {
				b, err = openScrubbed(spec, storeDir, w.storeOptions(fsys), w.scrubEvery)
			} else {
				b, err = open(worker)
			}
			if err != nil || wrap == nil {
				return b, err
			}
			return wrap(b, storeDir), nil
		}
	}
	return q, nil
}

// statefulWorkers counts the workers of q that own a store.
func statefulWorkers(p *spe.Pipeline) int {
	n := 0
	for _, st := range p.Stages {
		if st.Window != nil || st.Join != nil {
			n += max(st.Parallelism, 1)
		}
	}
	return n
}
