package bench

import (
	"fmt"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// The ablation prices the resilience knobs of DESIGN §14-§17 in steady
// state: rmw_session_job is re-run with one knob changed at a time and
// reported against the unmodified workload measured in the same
// invocation.

// AblationRow is one knob's run of rmw_session_job.
type AblationRow struct {
	Knob           string  `json:"knob"`
	EventsPerS     float64 `json:"events_per_s"`
	CommitP50Ms    float64 `json:"commit_p50_ms"`
	EventsRatio    float64 `json:"events_per_s_ratio_to_base"`
	CommitP50Ratio float64 `json:"commit_p50_ms_ratio_to_base"`
}

// RunAblation measures the base workload and each variant, untraced.
func RunAblation(cfg Config) ([]AblationRow, error) {
	base, err := WorkloadByName("rmw_session_job")
	if err != nil {
		return nil, err
	}
	variants := []struct {
		knob string
		edit func(*Workload)
	}{
		{"base", func(*Workload) {}},
		{"op_deadline_off", func(w *Workload) { w.OpDeadline = 0 }},
		{"slow_op_threshold_off", func(w *Workload) { w.SlowOpThreshold = 0 }},
		{"group_commit_off", func(w *Workload) { w.tweak = func(o *core.Options) { o.DisableGroupCommit = true } }},
		{"full_commits", func(w *Workload) { w.tweak = func(o *core.Options) { o.MaxDeltaChain = -1 } }},
		// The scrubber needs the store itself, which statebackend.Open
		// keeps to itself; both rows open stores through the benchmark's
		// own adapter, so running/idle is the scrubber's price alone.
		{"scrubber_idle", func(w *Workload) { w.scrubEvery = time.Hour }},
		{"scrubber_running", func(w *Workload) { w.scrubEvery = 50 * time.Millisecond }},
	}
	cfg.Trace = false
	var rows []AblationRow
	for _, v := range variants {
		w := *base
		v.edit(&w)
		fmt.Fprintf(cfg.Log, "ablate.%s\n", v.knob)
		r, err := RunWorkload(&w, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: ablate %s: %w", v.knob, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("bench: ablate %s: results differ from the oracle: %v", v.knob, r.Errors)
		}
		row := AblationRow{Knob: v.knob}
		for _, m := range r.EndToEnd {
			switch m.Name {
			case "events_per_s":
				row.EventsPerS = m.Value
			case "commit_p50_ms":
				row.CommitP50Ms = m.Value
			}
		}
		rows = append(rows, row)
	}
	for i := range rows {
		rows[i].EventsRatio = rows[i].EventsPerS / rows[0].EventsPerS
		rows[i].CommitP50Ratio = rows[i].CommitP50Ms / rows[0].CommitP50Ms
	}
	return rows, nil
}

// scrubbedBackend adapts a core.Store the benchmark opened itself, so it
// can hold the handle Store.StartScrubber needs. It mirrors the FlowKV
// adapter of package statebackend.
type scrubbedBackend struct {
	st *core.Store
	sc *core.Scrubber
}

func openScrubbed(spec *spe.OperatorSpec, dir string, opts core.Options, every time.Duration) (statebackend.Backend, error) {
	agg := core.AggIncremental
	if spec.IsHolistic() {
		agg = core.AggHolistic
	}
	opts.Dir, opts.Assigner = dir, spec.Assigner
	st, err := core.Open(agg, spec.Assigner.Kind(), opts)
	if err != nil {
		return nil, err
	}
	return &scrubbedBackend{st: st, sc: st.StartScrubber(core.ScrubberOptions{Interval: every})}, nil
}

func (b *scrubbedBackend) Name() string { return string(statebackend.KindFlowKV) }
func (b *scrubbedBackend) Append(key, value []byte, w window.Window, ts int64) error {
	return b.st.Append(key, value, w, ts)
}
func (b *scrubbedBackend) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	return b.st.Get(key, w)
}
func (b *scrubbedBackend) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	return b.st.Read(key, w)
}
func (b *scrubbedBackend) ReadWindow(window.Window, func([]byte, [][]byte) error) (bool, error) {
	return false, nil // the ablated workload is RMW: no bulk window reads
}
func (b *scrubbedBackend) DropAppended(key []byte, w window.Window) error { return b.st.Drop(key, w) }
func (b *scrubbedBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.st.GetAggregate(key, w)
}
func (b *scrubbedBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	return b.st.PutAggregate(key, w, agg)
}
func (b *scrubbedBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.st.GetAggregate(key, w)
}
func (b *scrubbedBackend) Flush() error { return b.st.Flush() }
func (b *scrubbedBackend) Close() error {
	b.sc.Stop()
	return b.st.Close()
}
func (b *scrubbedBackend) Destroy() error {
	b.sc.Stop()
	return b.st.Destroy()
}
func (b *scrubbedBackend) CheckpointMeta(dir string, meta []byte) error {
	return b.st.CheckpointWithMeta(dir, meta)
}
func (b *scrubbedBackend) CheckpointDeltaMeta(dir, parent string, meta []byte) error {
	return b.st.CheckpointDelta(dir, parent, meta)
}
func (b *scrubbedBackend) RestoreMeta(dir string) ([]byte, error) { return b.st.RestoreWithMeta(dir) }

var _ statebackend.DeltaCheckpointer = (*scrubbedBackend)(nil)
