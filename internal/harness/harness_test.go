package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

func quickScale(t *testing.T) Scale {
	t.Helper()
	sc := QuickScale(t.TempDir())
	sc.Events = 6_000
	return sc
}

func TestRunQueryProducesMeasurements(t *testing.T) {
	sc := quickScale(t)
	opts := ScaledStoreOptions()
	opts.WindowMs = 2_000
	out := RunQuery(sc, "Q11", statebackend.KindFlowKV, opts, nil)
	if out.Failed {
		t.Fatalf("run failed: %s", out.FailReason)
	}
	if out.ThroughputTPS <= 0 || out.Elapsed <= 0 {
		t.Errorf("throughput=%f elapsed=%v", out.ThroughputTPS, out.Elapsed)
	}
	if out.Results == 0 {
		t.Error("no results emitted")
	}
	if out.Breakdown.StoreTotal() == 0 {
		t.Error("no store CPU time recorded")
	}
}

func TestRunQueryUnknownQuery(t *testing.T) {
	sc := quickScale(t)
	out := RunQuery(sc, "Q99", statebackend.KindInMem, Options{WindowMs: 1000}, nil)
	if !out.Failed {
		t.Error("unknown query should fail")
	}
}

func TestInMemOOMReproducesFailureBars(t *testing.T) {
	// The paper's crossed-out bars: the in-memory store fails on large
	// windows. Our GC/capacity model must reproduce that failure mode.
	sc := quickScale(t)
	sc.Events = 30_000
	opts := ScaledStoreOptions()
	opts.WindowMs = 25_000 // large state
	out := RunQuery(sc, "Q7", statebackend.KindInMem, opts, nil)
	if !out.Failed || !strings.Contains(out.FailReason, "out of memory") {
		t.Errorf("expected OOM on large window, got failed=%v reason=%q", out.Failed, out.FailReason)
	}
	// Small windows must still succeed.
	opts.WindowMs = 500
	out = RunQuery(sc, "Q7", statebackend.KindInMem, opts, nil)
	if out.Failed {
		t.Errorf("small window failed: %s", out.FailReason)
	}
}

func TestRateLimitPacesSource(t *testing.T) {
	var emitted int
	src := RateLimit(func(emit func(spe.Tuple)) {
		for i := 0; i < 200; i++ {
			emit(spe.Tuple{TS: int64(i)})
		}
	}, 2000) // 2000 ev/s -> 200 events take ~100ms
	start := time.Now()
	src(func(t spe.Tuple) { emitted++ })
	elapsed := time.Since(start)
	if emitted != 200 {
		t.Fatalf("emitted %d", emitted)
	}
	if elapsed < 70*time.Millisecond {
		t.Errorf("rate limiter too fast: %v", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("rate limiter too slow: %v", elapsed)
	}
}

func TestFig11DataShape(t *testing.T) {
	sc := quickScale(t)
	pts := Fig11Data(sc)
	if len(pts) != 2*len(Fig11Ratios()) {
		t.Fatalf("%d points", len(pts))
	}
	// Prediction disabled (ratio 0) must not be the best configuration —
	// the Figure 11 shape.
	byQuery := map[string]map[float64]Fig11Point{}
	for _, p := range pts {
		if p.Failed {
			t.Fatalf("point failed: %+v", p)
		}
		if byQuery[p.Query] == nil {
			byQuery[p.Query] = map[float64]Fig11Point{}
		}
		byQuery[p.Query][p.Ratio] = p
	}
	for q, m := range byQuery {
		if m[0].HitRatio != 0 {
			t.Errorf("%s: hit ratio %f with prediction disabled", q, m[0].HitRatio)
		}
		if m[0.02].HitRatio <= 0.3 {
			t.Errorf("%s: hit ratio %f at ratio 0.02, want high", q, m[0.02].HitRatio)
		}
	}
}

func TestFiguresRegistryRunsQuick(t *testing.T) {
	// Smoke-run the cheap figures end to end at tiny scale.
	sc := QuickScale(t.TempDir())
	sc.Events = 3_000
	sc.LatencySeconds = 0.1
	for _, fig := range Figures() {
		switch fig.ID {
		case "fig8", "fig9", "fig13":
			continue // exercised separately / too slow for unit tests
		}
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := fig.Run(sc, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("figure printed nothing")
			}
		})
	}
}

func TestFig8DataSubset(t *testing.T) {
	sc := quickScale(t)
	rows := Fig8Data(sc, []string{"Q11"}, []int64{2_000})
	if len(rows) != len(statebackend.Kinds()) {
		t.Fatalf("%d rows", len(rows))
	}
	sortRowsByQuery(rows)
	for _, r := range rows {
		if r.Backend == statebackend.KindInMem {
			continue // may fail by design
		}
		if r.Outcome.Failed {
			t.Errorf("%s/%s failed: %s", r.Query, r.Backend, r.Outcome.FailReason)
		}
	}
}

func TestAblations(t *testing.T) {
	sc := quickScale(t)
	var buf bytes.Buffer
	rows, err := Ablations(sc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	for _, r := range rows {
		if r.Failed {
			t.Errorf("ablation %s failed", r.Name)
		}
	}
	if !strings.Contains(buf.String(), "aar/coarse-grained") {
		t.Error("report missing rows")
	}
}

func TestTruncateEvents(t *testing.T) {
	ev := GenerateEvents(100)
	if got := TruncateEvents(ev, 10); len(got) != 10 {
		t.Errorf("truncate = %d", len(got))
	}
	if got := TruncateEvents(ev, 1000); len(got) != 100 {
		t.Errorf("over-truncate = %d", len(got))
	}
}
