package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rep, nil
}

// verdict applies a metric's frozen bound to a baseline a and a
// candidate b: how much worse b's value is (as a share of a's, or
// absolutely), and how wide either side's own repeats spread. A spread
// wider than the bound cannot resolve a difference of that size.
func verdict(a, b Metric) (string, float64) {
	d := a.MetricDef
	worse := b.Value - a.Value
	if d.Better == higher {
		worse = -worse
	}
	spread := math.Max(a.Max-a.Min, b.Max-b.Min)
	if !d.Abs {
		if a.Value == 0 {
			return "unresolved", 0
		}
		worse /= math.Abs(a.Value)
		spread /= math.Abs(a.Value)
	}
	switch {
	case spread > d.Bound && d.Bound > 0:
		return "unresolved", worse
	case worse > d.Bound:
		return "worse", worse
	case worse < -d.Bound:
		return "better", worse
	default:
		return "same", worse
	}
}

// Compare prints, for every end-to-end metric of every workload both
// result files hold, whether the second is better, the same, worse or
// unresolved against the first under the metric's bound. It reports
// whether anything was worse.
func Compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %gs\nB: %s  commit %s  seed %d  %gs\n",
		pathA, a.Host.Commit, a.Seed, a.Seconds, pathB, b.Host.Commit, b.Seed, b.Seconds)
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	anyWorse := false
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, ma := range ra.EndToEnd {
				for _, mb := range rb.EndToEnd {
					if ma.Name != mb.Name {
						continue
					}
					v, by := verdict(ma, mb)
					anyWorse = anyWorse || v == "worse"
					unit := "%"
					if ma.Abs {
						unit, by = "", by/100
					}
					fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g %8.2f%s %6.2f%s  %s\n",
						ra.Workload, ma.Name, ma.Value, mb.Value, by*100, unit, ma.Bound*100, unit, v)
				}
			}
		}
	}
	return anyWorse, nil
}
