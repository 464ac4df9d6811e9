package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"flowkv/internal/metrics"
	"flowkv/internal/statebackend"
)

// Figure is one reproducible experiment from the paper.
type Figure struct {
	// ID is the paper's figure number ("fig4" ... "fig13").
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment at the given scale, printing the
	// figure's rows/series to w.
	Run func(sc Scale, w io.Writer) error
}

// Figures lists every reproduced figure in paper order.
func Figures() []Figure {
	return []Figure{
		{"fig4", "Execution-time breakdown of Flink on RocksDB and Faster (motivation)", Fig4},
		{"fig8", "Throughput for the NEXMark queries with increasing window sizes", Fig8},
		{"fig9", "P95 latency vs tuple rate (Q7, Q11-Median, Q11)", Fig9},
		{"fig10", "Store CPU time by operation (write / read+delete / compaction)", Fig10},
		{"fig11", "Throughput and prefetch hit ratio vs read batch ratio", Fig11},
		{"fig12", "Throughput vs maximum space amplification (MSA)", Fig12},
		{"fig13", "Max throughput of Q11-Median vs worker count", Fig13},
	}
}

// breakdownQueries are the three queries the paper breaks down: one per
// access pattern (AAR, AUR, RMW).
func breakdownQueries() []string { return []string{"Q7", "Q11-Median", "Q11"} }

// Fig4 reproduces the motivation experiment: execution-time breakdown of
// the baseline stores on the three pattern-representative queries.
func Fig4(sc Scale, w io.Writer) error {
	events := GenerateEvents(sc.Events)
	opts := ScaledStoreOptions()
	opts.WindowMs = 5_000

	tb := metrics.NewTable("query", "pattern", "store", "total", "query-compute", "store-cpu", "io-wait")
	for _, q := range breakdownQueries() {
		for _, kind := range []statebackend.Kind{statebackend.KindRocksDB, statebackend.KindFaster} {
			out := RunQuery(sc, q, kind, opts, events)
			if out.Failed {
				tb.AddRow(q, patternOf(q), kind, "DNF: "+out.FailReason, "-", "-", "-")
				continue
			}
			store := out.Breakdown.StoreTotal()
			iowait := out.Breakdown.Total(metrics.OpIOWait)
			compute := out.Elapsed - store - iowait
			if compute < 0 {
				compute = 0
			}
			tb.AddRow(q, patternOf(q), kind,
				out.Elapsed.Round(time.Millisecond),
				compute.Round(time.Millisecond),
				store.Round(time.Millisecond),
				iowait.Round(time.Millisecond))
		}
	}
	fprintf(w, "Figure 4 — execution-time breakdown, %d events\n%s\n", sc.Events, tb)
	return nil
}

// Fig8Row is one bar of Figure 8.
type Fig8Row struct {
	Query    string
	WindowMs int64
	Backend  statebackend.Kind
	Outcome  RunOutcome
}

// Fig8Data runs the full throughput matrix and returns it.
func Fig8Data(sc Scale, queriesToRun []string, windows []int64) []Fig8Row {
	events := GenerateEvents(sc.Events)
	var rows []Fig8Row
	for _, q := range queriesToRun {
		for _, win := range windows {
			for _, kind := range statebackend.Kinds() {
				opts := ScaledStoreOptions()
				opts.WindowMs = win
				rows = append(rows, Fig8Row{
					Query: q, WindowMs: win, Backend: kind,
					Outcome: RunQuery(sc, q, kind, opts, events),
				})
			}
		}
	}
	return rows
}

// Fig8 reproduces the headline throughput comparison: 8 queries × 3
// window sizes × 4 stores.
func Fig8(sc Scale, w io.Writer) error {
	rows := Fig8Data(sc, allQueries(), WindowSizesMs())
	tb := metrics.NewTable("query", "pattern", "window", "store", "throughput(ev/s)", "vs-rocksdb")
	// Index rocksdb throughput for the speedup column.
	base := make(map[string]float64)
	for _, r := range rows {
		if r.Backend == statebackend.KindRocksDB && !r.Outcome.Failed {
			base[fmt.Sprintf("%s/%d", r.Query, r.WindowMs)] = r.Outcome.ThroughputTPS
		}
	}
	for _, r := range rows {
		win := fmt.Sprintf("%ds", r.WindowMs/1000)
		if r.Outcome.Failed {
			tb.AddRow(r.Query, patternOf(r.Query), win, r.Backend, "FAIL ("+shorten(r.Outcome.FailReason)+")", "-")
			continue
		}
		speed := "-"
		if b := base[fmt.Sprintf("%s/%d", r.Query, r.WindowMs)]; b > 0 {
			speed = fmt.Sprintf("%.2fx", r.Outcome.ThroughputTPS/b)
		}
		tb.AddRow(r.Query, patternOf(r.Query), win, r.Backend,
			fmt.Sprintf("%.0f", r.Outcome.ThroughputTPS), speed)
	}
	fprintf(w, "Figure 8 — throughput on increasing window sizes, %d events\n%s\n", sc.Events, tb)
	return nil
}

// Fig9 reproduces the tail-latency experiment: P95 latency at fixed
// tuple rates for the three pattern-representative queries.
func Fig9(sc Scale, w io.Writer) error {
	rates := []float64{5_000, 10_000, 20_000, 40_000}
	tb := metrics.NewTable("query", "store", "rate(ev/s)", "P50", "P95")
	for _, q := range breakdownQueries() {
		for _, kind := range statebackend.Kinds() {
			for _, rate := range rates {
				opts := ScaledStoreOptions()
				opts.WindowMs = 5_000
				opts.RateEPS = rate
				n := int(rate * sc.LatencySeconds)
				if n < 500 {
					n = 500
				}
				events := TruncateEvents(GenerateEvents(n), n)
				out := RunQuery(sc, q, kind, opts, events)
				if out.Failed {
					tb.AddRow(q, kind, fmt.Sprintf("%.0f", rate), "FAIL", shorten(out.FailReason))
					continue
				}
				// A run that can't keep up with the offered rate has
				// unbounded latency; mark it like the paper's truncated
				// curves.
				if out.ThroughputTPS < rate*0.7 {
					tb.AddRow(q, kind, fmt.Sprintf("%.0f", rate), "overload", "overload")
					continue
				}
				tb.AddRow(q, kind, fmt.Sprintf("%.0f", rate),
					out.P50.Round(time.Microsecond), out.P95.Round(time.Microsecond))
			}
		}
	}
	fprintf(w, "Figure 9 — P95 latency vs tuple rate (window 5s)\n%s\n", tb)
	return nil
}

// Fig10 reproduces the store CPU-time breakdown by operation.
func Fig10(sc Scale, w io.Writer) error {
	events := GenerateEvents(sc.Events)
	kinds := []statebackend.Kind{statebackend.KindFlowKV, statebackend.KindRocksDB, statebackend.KindFaster}
	tb := metrics.NewTable("query", "store", "write", "read+delete", "compaction", "store-total")
	for _, q := range breakdownQueries() {
		for _, kind := range kinds {
			opts := ScaledStoreOptions()
			opts.WindowMs = 5_000
			out := RunQuery(sc, q, kind, opts, events)
			if out.Failed {
				tb.AddRow(q, kind, "DNF", "-", "-", "-")
				continue
			}
			tb.AddRow(q, kind,
				out.Breakdown.Total(metrics.OpWrite).Round(time.Millisecond),
				out.Breakdown.Total(metrics.OpRead).Round(time.Millisecond),
				out.Breakdown.Total(metrics.OpCompact).Round(time.Millisecond),
				out.Breakdown.StoreTotal().Round(time.Millisecond))
		}
	}
	fprintf(w, "Figure 10 — store CPU time by operation, %d events\n%s\n", sc.Events, tb)
	return nil
}

// Fig11Point is one x-position of Figure 11: throughput and hit ratio at
// one read batch ratio.
type Fig11Point struct {
	Query         string
	Ratio         float64
	ThroughputTPS float64
	HitRatio      float64
	Failed        bool
}

// Fig11Ratios returns the swept read-batch ratios (0 disables prediction).
func Fig11Ratios() []float64 { return []float64{0, 0.01, 0.02, 0.05, 0.1} }

// Fig11Data sweeps the predictive-batch-read ratio on the AUR queries.
func Fig11Data(sc Scale) []Fig11Point {
	events := GenerateEvents(sc.Events)
	var pts []Fig11Point
	for _, q := range []string{"Q11-Median", "Q7-Session"} {
		for _, ratio := range Fig11Ratios() {
			opts := ScaledStoreOptions()
			opts.WindowMs = 5_000
			// A tiny write buffer forces the disk path even at quick
			// scale; prediction is pointless if nothing ever flushes.
			opts.FlowKV.WriteBufferBytes = 64 << 10
			if ratio == 0 {
				opts.FlowKV.ReadBatchRatio = -1 // explicit disable
			} else {
				opts.FlowKV.ReadBatchRatio = ratio
			}
			out := RunQuery(sc, q, statebackend.KindFlowKV, opts, events)
			pts = append(pts, Fig11Point{
				Query: q, Ratio: ratio,
				ThroughputTPS: out.ThroughputTPS,
				HitRatio:      out.FlowKV.HitRatio(),
				Failed:        out.Failed,
			})
		}
	}
	return pts
}

// Fig11 reproduces the predictive-batch-read sensitivity study.
func Fig11(sc Scale, w io.Writer) error {
	pts := Fig11Data(sc)
	tb := metrics.NewTable("query", "read-batch-ratio", "throughput(ev/s)", "hit-ratio")
	for _, p := range pts {
		if p.Failed {
			tb.AddRow(p.Query, p.Ratio, "FAIL", "-")
			continue
		}
		tb.AddRow(p.Query, p.Ratio, fmt.Sprintf("%.0f", p.ThroughputTPS), fmt.Sprintf("%.3f", p.HitRatio))
	}
	fprintf(w, "Figure 11 — effect of predictive batch read, %d events\n%s\n", sc.Events, tb)
	return nil
}

// Fig12MSAs returns the swept MSA thresholds.
func Fig12MSAs() []float64 { return []float64{1.1, 1.25, 1.5, 2.0, 3.0} }

// Fig12 reproduces the MSA (compaction threshold) sensitivity study.
func Fig12(sc Scale, w io.Writer) error {
	events := GenerateEvents(sc.Events)
	tb := metrics.NewTable("query", "MSA", "throughput(ev/s)", "compactions")
	for _, q := range []string{"Q11-Median", "Q7-Session"} {
		for _, msa := range Fig12MSAs() {
			opts := ScaledStoreOptions()
			opts.WindowMs = 5_000
			opts.FlowKV.MaxSpaceAmplification = msa
			out := RunQuery(sc, q, statebackend.KindFlowKV, opts, events)
			if out.Failed {
				tb.AddRow(q, msa, "FAIL", "-")
				continue
			}
			tb.AddRow(q, msa, fmt.Sprintf("%.0f", out.ThroughputTPS), out.FlowKV.Compactions)
		}
	}
	fprintf(w, "Figure 12 — throughput vs MSA, %d events\n%s\n", sc.Events, tb)
	return nil
}

// Fig13Workers returns the swept worker counts.
func Fig13Workers() []int { return []int{1, 2, 4, 8} }

// Fig13 reproduces the scalability experiment: Q11-Median max throughput
// as the number of (share-nothing) workers grows. The paper scales
// machines; we scale worker goroutines with independent store instances
// and key ranges, the same share-nothing argument at process scale —
// which means measured speedup is capped by the host's core count (a
// 1-core host shows a flat curve by construction).
func Fig13(sc Scale, w io.Writer) error {
	events := GenerateEvents(sc.Events)
	fprintf(w, "host cores available: %d (speedup is bounded above by this)\n", runtime.NumCPU())
	tb := metrics.NewTable("workers", "throughput(ev/s)", "speedup")
	var base float64
	for _, workers := range Fig13Workers() {
		s := sc
		s.Parallelism = workers
		opts := ScaledStoreOptions()
		opts.WindowMs = 5_000
		out := RunQuery(s, "Q11-Median", statebackend.KindFlowKV, opts, events)
		if out.Failed {
			tb.AddRow(workers, "FAIL", "-")
			continue
		}
		if base == 0 {
			base = out.ThroughputTPS
		}
		tb.AddRow(workers, fmt.Sprintf("%.0f", out.ThroughputTPS),
			fmt.Sprintf("%.2fx", out.ThroughputTPS/base))
	}
	fprintf(w, "Figure 13 — Q11-Median scalability over workers, %d events\n%s\n", sc.Events, tb)
	return nil
}

func allQueries() []string {
	return []string{"Q5", "Q5-Append", "Q7", "Q7-Session", "Q8", "Q11", "Q11-Median", "Q12"}
}

func patternOf(q string) string {
	// Delegated to the queries package's labels without importing it in
	// every caller.
	switch q {
	case "Q5":
		return "RMW+RMW"
	case "Q5-Append":
		return "RMW+AAR"
	case "Q7", "Q8":
		return "AAR"
	case "Q7-Session", "Q11-Median":
		return "AUR"
	case "Q11", "Q12":
		return "RMW"
	default:
		return "?"
	}
}

func shorten(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// AblationRow is one row of the design-ablation experiment.
type AblationRow struct {
	Name          string
	Query         string
	ThroughputTPS float64
	Failed        bool
}

// Ablations benchmarks the design choices DESIGN.md calls out beyond the
// paper's own sensitivity studies: coarse vs fine AAR layout,
// store-instance count m, and the Faster synchronization model.
func Ablations(sc Scale, w io.Writer) ([]AblationRow, error) {
	events := GenerateEvents(sc.Events)
	var rows []AblationRow
	add := func(name, q string, kind statebackend.Kind, mutate func(*Options)) {
		opts := ScaledStoreOptions()
		opts.WindowMs = 5_000
		if mutate != nil {
			mutate(&opts)
		}
		out := RunQuery(sc, q, kind, opts, events)
		rows = append(rows, AblationRow{Name: name, Query: q,
			ThroughputTPS: out.ThroughputTPS, Failed: out.Failed})
	}
	add("aar/coarse-grained", "Q7", statebackend.KindFlowKV, nil)
	add("aar/fine-grained", "Q7", statebackend.KindFlowKV, func(o *Options) {
		o.FlowKV.FineGrainedAAR = true
	})
	for _, m := range []int{1, 2, 4} {
		m := m
		add(fmt.Sprintf("instances/m=%d", m), "Q11-Median", statebackend.KindFlowKV, func(o *Options) {
			o.FlowKV.Instances = m
		})
	}
	add("faster/sync-on", "Q11", statebackend.KindFaster, nil)
	add("faster/sync-off", "Q11", statebackend.KindFaster, func(o *Options) {
		o.Faster.NoSync = true
	})

	tb := metrics.NewTable("ablation", "query", "throughput(ev/s)")
	for _, r := range rows {
		v := fmt.Sprintf("%.0f", r.ThroughputTPS)
		if r.Failed {
			v = "FAIL"
		}
		tb.AddRow(r.Name, r.Query, v)
	}
	fprintf(w, "Ablations — design-choice studies, %d events\n%s\n", sc.Events, tb)
	return rows, nil
}

// sortRowsByQuery is a helper for stable reporting in tests.
func sortRowsByQuery(rows []Fig8Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Query != rows[j].Query {
			return rows[i].Query < rows[j].Query
		}
		return rows[i].WindowMs < rows[j].WindowMs
	})
}
