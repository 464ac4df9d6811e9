package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Report is the result file of one invocation.
type Report struct {
	Benchmark string `json:"benchmark"`
	// Claim is always null: the benchmark fixes the names later changes
	// are judged by and claims no gain itself.
	Claim     *string           `json:"claim"`
	Host      Host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*WorkloadResult `json:"workloads"`
	Ablation  []AblationRow     `json:"ablation,omitempty"`
}

// ContractPerLayer is what BENCHMARK.json lists under per_layer: the
// layer metrics plus the end-to-end metrics that cannot be gated (see
// MetricDef.Gate).
func ContractPerLayer() []MetricDef {
	defs := append([]MetricDef(nil), PerLayer...)
	for _, d := range EndToEnd {
		if !d.Gate {
			defs = append(defs, d)
		}
	}
	return defs
}

// BenchmarkJSON renders the BENCHMARK.json that describes this benchmark
// to the driver, from the same tables the runner reports by.
func BenchmarkJSON() ([]byte, error) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		if d.Gate {
			doc.EndToEnd = append(doc.EndToEnd, gated{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range ContractPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// ContractLine renders one workload's result as the single JSON object
// the benchmark contract asks for on the last line of standard output:
// the gated end-to-end metrics of an untraced run, or every per_layer
// metric of a traced one (0 where a metric does not apply).
func ContractLine(r *WorkloadResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	have := map[string]float64{}
	for _, m := range append(append([]Metric(nil), r.EndToEnd...), r.PerLayer...) {
		have[m.Name] = m.Value
	}
	metrics := map[string]mv{}
	put := func(d MetricDef) {
		v := have[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	if r.Traced {
		for _, d := range ContractPerLayer() {
			put(d)
		}
	} else {
		for _, d := range EndToEnd {
			if d.Gate {
				put(d)
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
}

// Print writes every metric of r by name, with unit and spread.
func (r *WorkloadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %gs  traced=%v  correct=%v  (%d results checked, %d failed)\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	row := func(m Metric) {
		extra := ""
		if len(m.Repeats) > 1 {
			extra = fmt.Sprintf("  [min %.6g  max %.6g  n=%d]", m.Min, m.Max, len(m.Repeats))
		}
		if m.Samples > 0 {
			extra += fmt.Sprintf("  over %d samples", m.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, extra)
	}
	for _, m := range r.EndToEnd {
		row(m)
	}
	for _, m := range r.PerLayer {
		row(m)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteOutputs writes the report and, for traced runs, each workload's
// spans and the ladder under dir.
func WriteOutputs(dir string, rep *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "flowkvbench.json"), rep); err != nil {
		return err
	}
	var ladder []LadderRung
	for _, r := range rep.Workloads {
		if !r.Traced {
			continue
		}
		ladder = append(ladder, r.ladder...)
		err := writeJSON(filepath.Join(dir, "trace-"+r.Workload+".json"), struct {
			Workload string `json:"workload"`
			Host     Host   `json:"host"`
			Seed     int64  `json:"seed"`
			Dropped  int64  `json:"spans_dropped"`
			Spans    []Span `json:"spans"`
		}{r.Workload, rep.Host, r.Seed, r.spansDropped, r.spans})
		if err != nil {
			return err
		}
	}
	if ladder == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "ladder.json"), struct {
		Host  Host         `json:"host"`
		Seed  int64        `json:"seed"`
		Rungs []LadderRung `json:"rungs"`
	}{rep.Host, rep.Seed, ladder})
}

// PrintAblation writes the ablation rows, if any.
func PrintAblation(w io.Writer, rows []AblationRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  ablate.%-22s events_per_s %12.6g (x%.3f of base)   commit_p50_ms %9.4g (x%.3f of base)\n",
			r.Knob, r.EventsPerS, r.EventsRatio, r.CommitP50Ms, r.CommitP50Ratio)
	}
}
