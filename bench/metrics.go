package bench

import (
	"math"
	"sort"
)

// MetricDef names one metric: its unit, which direction is better and,
// for end-to-end metrics, the bound by which it may worsen before a
// change counts as a regression (a share of the baseline's median, or an
// absolute amount when Abs is set).
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Abs    bool    `json:"abs,omitempty"`
	// Gate marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, which the driver holds to their bounds. The driver wants
	// a gated metric from every workload, never 0, and its ten-run spread
	// inside its bound, which is at most a quarter; on the shared
	// reference host only set-up time and the two byte counts meet that at
	// all hours. The others are listed under per_layer, unbounded, and
	// -compare judges all twelve. README.md records each demotion.
	Gate bool `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the twelve metrics a user of the system would see.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Gate: true},
	{Name: "events_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_s_per_mevent", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "write_bytes_per_event", Unit: "B", Better: lower, Bound: 0.07, Gate: true},
	{Name: "disk_end_mb", Unit: "MB", Better: lower, Bound: 0.20, Gate: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "slo_miss_frac", Unit: "frac", Better: lower, Bound: 0.01, Abs: true},
	{Name: "failed_frac", Unit: "frac", Better: lower, Bound: 0, Abs: true},
	{Name: "commit_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "commit_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "recovery_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

// ladderRungs are the layers of the ladder, bottom up; a layer's cost is
// its rung minus the rung below.
var ladderRungs = []string{"binio", "logfile", "instance", "core", "statebackend", "spe", "job", "tenant"}

// PerLayer are the metrics of single layers, collected in the traced
// run. README.md records which end-to-end metric each should move.
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	var d []MetricDef
	add := func(name, unit, better string) { d = append(d, MetricDef{Name: name, Unit: unit, Better: better}) }
	for _, op := range backendOpNames {
		add("statebackend."+op+"_ns_op", "ns", lower)
		add("statebackend."+op+"_ops", "count", lower)
	}
	add("statebackend.busy_share", "frac", lower)
	add("statebackend.errors", "count", lower)

	add("core.hit_ratio", "frac", higher)
	add("core.evictions", "count", lower)
	add("core.compactions", "count", lower)
	add("core.write_p99_us", "us", lower)
	add("core.read_p99_us", "us", lower)
	add("core.sync_p99_us", "us", lower)
	add("core.ckpt_linked_bytes", "B", higher)
	add("core.ckpt_copied_bytes", "B", lower)
	add("core.stalls", "count", lower)

	for _, op := range fsOpNames {
		add("fs."+op+"_calls", "count", lower)
	}
	add("fs.write_ns", "ns", lower)
	add("fs.pread_ns", "ns", lower)
	add("fs.fsync_ns", "ns", lower)
	add("fs.write_bytes", "B", lower)
	add("fs.pread_bytes", "B", lower)
	add("fs.bytes_per_write", "B", higher)
	add("fs.fsyncs_per_commit", "count", lower)
	add("fs.creates_per_window", "count", lower)

	add("spe.src_block_share", "frac", lower)
	add("spe.commit_stall_share", "frac", lower)
	add("spe.commits", "count", lower)
	add("spe.restore_ms", "ms", lower)
	add("spe.seek_ms", "ms", lower)
	add("spe.results", "count", higher)
	add("spe.latency_p99_ms", "ms", lower)
	add("spe.latency_max_ms", "ms", lower)

	add("jobmanager.admitted", "count", higher)
	add("jobmanager.throttled", "count", lower)
	add("jobmanager.shed", "count", lower)
	add("jobmanager.admit_p99_us", "us", lower)
	add("jobmanager.write_stalls", "count", lower)
	add("jobmanager.failovers", "count", lower)

	add("gen.lag_p95_ms", "ms", lower)
	add("gen.backlog_end_events", "count", lower)

	add("proc.alloc_bytes_per_event", "B", lower)
	add("proc.allocs_per_event", "count", lower)
	add("proc.gc_cpu_share", "frac", lower)
	add("proc.peak_rss_mb", "MB", lower)

	add("trace.overhead_frac", "frac", lower)
	add("trace.spans_dropped", "count", lower)

	for _, rung := range ladderRungs {
		add("ladder."+rung+".ns_op", "ns", lower)
		add("ladder."+rung+".allocs_op", "count", lower)
	}
	return d
}

// Metric is one reported value: the median of the in-process repeats
// (or the pooled value, for fractions and commit quantiles) with the
// repeats' spread.
type Metric struct {
	MetricDef
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Repeats []float64 `json:"repeats,omitempty"`
	// Samples is the number of observations behind a quantile.
	Samples int `json:"samples,omitempty"`
}

// summarize reports the median of repeats with their spread.
func summarize(def MetricDef, repeats []float64) Metric {
	m := Metric{MetricDef: def, Repeats: repeats, Value: median(repeats)}
	m.Min, m.Max = minMax(repeats)
	return m
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func defByName(defs []MetricDef, name string) MetricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: undefined metric " + name)
}
