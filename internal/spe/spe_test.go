package spe

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"

	"flowkv/internal/core"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// countAgg is an incremental count aggregate (uint64 accumulator).
var countAgg = IncrementalFunc{
	AddFunc: func(acc []byte, _ Tuple) []byte {
		var c uint64
		if acc != nil {
			c = binary.LittleEndian.Uint64(acc)
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], c+1)
		return out[:]
	},
	MergeFunc: func(a, b []byte) []byte {
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:],
			binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return out[:]
	},
}

// listLenAgg is a holistic aggregate returning the value count.
var listLenAgg = HolisticFunc(func(_ []byte, values [][]byte) []byte {
	return []byte(strconv.Itoa(len(values)))
})

func memBackend(t testing.TB) statebackend.Backend {
	b, err := statebackend.Open(statebackend.Config{Kind: statebackend.KindInMem})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collectOp runs tuples through a single operator and returns emissions.
func collectOp(t *testing.T, spec OperatorSpec, backend statebackend.Backend, tuples []Tuple, wms []int64) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	op, err := NewWindowOperator(spec, backend, func(out Tuple) {
		got[string(out.Key)] = append(got[string(out.Key)], string(out.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	wi := 0
	for _, tp := range tuples {
		if err := op.OnTuple(tp); err != nil {
			t.Fatal(err)
		}
		for wi < len(wms) && wms[wi] <= tp.TS {
			if err := op.OnWatermark(wms[wi], 0); err != nil {
				t.Fatal(err)
			}
			wi++
		}
	}
	if err := op.Finish(0); err != nil {
		t.Fatal(err)
	}
	backend.Destroy()
	return got
}

func TestFixedWindowIncremental(t *testing.T) {
	spec := OperatorSpec{
		Assigner: window.FixedAssigner{Size: 100},
		Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
			ResultFunc: func(acc []byte) []byte {
				return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
			}},
	}
	var tuples []Tuple
	for i := 0; i < 250; i++ { // windows [0,100): 100, [100,200): 100, [200,300): 50
		tuples = append(tuples, Tuple{Key: []byte("k"), TS: int64(i)})
	}
	got := collectOp(t, spec, memBackend(t), tuples, []int64{100, 200})
	want := []string{"100", "100", "50"}
	if len(got["k"]) != 3 {
		t.Fatalf("emissions = %v", got["k"])
	}
	for i, w := range want {
		if got["k"][i] != w {
			t.Errorf("window %d count = %s, want %s", i, got["k"][i], w)
		}
	}
}

func TestSlidingWindowReplication(t *testing.T) {
	// Size 100, slide 50: every tuple lands in two windows.
	spec := OperatorSpec{
		Assigner: window.SlidingAssigner{Size: 100, Slide: 50},
		Holistic: listLenAgg,
	}
	var tuples []Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, Tuple{Key: []byte("k"), TS: int64(i)})
	}
	got := collectOp(t, spec, memBackend(t), tuples, nil)
	// Windows: [-50,50): 50 tuples, [0,100): 100, [50,150): 50.
	if len(got["k"]) != 3 {
		t.Fatalf("emissions = %v", got["k"])
	}
	if got["k"][0] != "50" || got["k"][1] != "100" || got["k"][2] != "50" {
		t.Errorf("per-window counts = %v", got["k"])
	}
}

func TestSessionWindowMergingHolistic(t *testing.T) {
	spec := OperatorSpec{
		Assigner: window.SessionAssigner{Gap: 10},
		Holistic: listLenAgg,
	}
	// Key a: bursts at 0..2 and 20..22 (two sessions), then 40 bridging
	// nothing. Key b: 5,8,11 -> one session (gaps < 10).
	tuples := []Tuple{
		{Key: []byte("a"), TS: 0}, {Key: []byte("a"), TS: 2},
		{Key: []byte("b"), TS: 5}, {Key: []byte("b"), TS: 8},
		{Key: []byte("b"), TS: 11},
		{Key: []byte("a"), TS: 20}, {Key: []byte("a"), TS: 22},
	}
	got := collectOp(t, spec, memBackend(t), tuples, nil)
	sort.Strings(got["a"])
	if len(got["a"]) != 2 || got["a"][0] != "2" || got["a"][1] != "2" {
		t.Errorf("a sessions = %v, want [2 2]", got["a"])
	}
	if len(got["b"]) != 1 || got["b"][0] != "3" {
		t.Errorf("b sessions = %v, want [3]", got["b"])
	}
}

func TestSessionWindowBridgeMergesState(t *testing.T) {
	// Two separate sessions bridged by a later tuple must fire once with
	// all tuples (holistic) or the merged accumulator (incremental).
	tuples := []Tuple{
		{Key: []byte("k"), TS: 0},
		{Key: []byte("k"), TS: 30},
		{Key: []byte("k"), TS: 15}, // bridges [0,10) and [30,40) via [15,25)... gap 20
	}
	specH := OperatorSpec{Assigner: window.SessionAssigner{Gap: 20}, Holistic: listLenAgg}
	got := collectOp(t, specH, memBackend(t), tuples, nil)
	if len(got["k"]) != 1 || got["k"][0] != "3" {
		t.Errorf("holistic bridge = %v, want [3]", got["k"])
	}
	specI := OperatorSpec{
		Assigner: window.SessionAssigner{Gap: 20},
		Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
			ResultFunc: func(acc []byte) []byte {
				return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
			}},
	}
	got = collectOp(t, specI, memBackend(t), tuples, nil)
	if len(got["k"]) != 1 || got["k"][0] != "3" {
		t.Errorf("incremental bridge = %v, want [3]", got["k"])
	}
}

// aggCountingBackend counts the aggregate round trips an operator makes.
type aggCountingBackend struct {
	statebackend.Backend
	gets, puts, takes int
}

func (c *aggCountingBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	c.gets++
	return c.Backend.GetAgg(key, w)
}

func (c *aggCountingBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	c.puts++
	return c.Backend.PutAgg(key, w, agg)
}

func (c *aggCountingBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	c.takes++
	return c.Backend.TakeAgg(key, w)
}

// TestSessionExtensionCostsOneRoundTrip pins the backend traffic of an
// incremental session: a tuple that opens or extends a session reads and
// writes its accumulator once; only a tuple bridging two sessions takes
// and re-puts accumulators to migrate them.
func TestSessionExtensionCostsOneRoundTrip(t *testing.T) {
	spec := OperatorSpec{
		Assigner: window.SessionAssigner{Gap: 20},
		Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
			ResultFunc: func(acc []byte) []byte {
				return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
			}},
	}
	backend := &aggCountingBackend{Backend: memBackend(t)}
	var got []string
	op, err := NewWindowOperator(spec, backend, func(out Tuple) { got = append(got, string(out.Value)) })
	if err != nil {
		t.Fatal(err)
	}
	step := func(ts int64, gets, puts, takes int) {
		t.Helper()
		before := *backend
		if err := op.OnTuple(Tuple{Key: []byte("k"), TS: ts}); err != nil {
			t.Fatal(err)
		}
		if g, p, k := backend.gets-before.gets, backend.puts-before.puts, backend.takes-before.takes; g != gets || p != puts || k != takes {
			t.Fatalf("tuple at %d: %d gets, %d puts, %d takes; want %d, %d, %d", ts, g, p, k, gets, puts, takes)
		}
	}
	step(0, 1, 1, 0) // opens [0,20)
	for ts := int64(5); ts <= 15; ts += 5 {
		step(ts, 1, 1, 0) // extends it
	}
	step(45, 1, 1, 0) // [0,35) is over: opens [45,65)
	step(50, 1, 1, 0)
	step(30, 1, 2, 2) // [30,50) bridges both: two takes, one merged put, then the add
	if err := op.Finish(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "7" {
		t.Fatalf("results = %v, want one session of 7 tuples", got)
	}
	backend.Destroy()
}

func TestSessionFiresOnWatermark(t *testing.T) {
	spec := OperatorSpec{Assigner: window.SessionAssigner{Gap: 10}, Holistic: listLenAgg}
	backend := memBackend(t)
	var emissions []Tuple
	op, err := NewWindowOperator(spec, backend, func(out Tuple) { emissions = append(emissions, out) })
	if err != nil {
		t.Fatal(err)
	}
	op.OnTuple(Tuple{Key: []byte("k"), TS: 0})
	op.OnWatermark(5, 0) // session open until 10
	if len(emissions) != 0 {
		t.Fatal("fired before gap expired")
	}
	op.OnWatermark(10, 0)
	if len(emissions) != 1 {
		t.Fatalf("emissions = %d, want 1 at watermark >= end", len(emissions))
	}
	if emissions[0].TS != 9 {
		t.Errorf("result TS = %d, want 9 (end-1)", emissions[0].TS)
	}
	backend.Destroy()
}

func TestCountWindows(t *testing.T) {
	spec := OperatorSpec{Assigner: window.CountAssigner{Size: 3}, Holistic: listLenAgg}
	var tuples []Tuple
	for i := 0; i < 8; i++ { // 2 full windows of 3, one partial of 2
		tuples = append(tuples, Tuple{Key: []byte("k"), TS: int64(i)})
	}
	got := collectOp(t, spec, memBackend(t), tuples, nil)
	if len(got["k"]) != 3 || got["k"][0] != "3" || got["k"][1] != "3" || got["k"][2] != "2" {
		t.Errorf("count windows = %v, want [3 3 2]", got["k"])
	}
}

func TestGlobalWindow(t *testing.T) {
	spec := OperatorSpec{
		Assigner: window.GlobalAssigner{},
		Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
			ResultFunc: func(acc []byte) []byte {
				return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
			}},
	}
	var tuples []Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, Tuple{Key: []byte(fmt.Sprintf("k%d", i%4)), TS: int64(i)})
	}
	got := collectOp(t, spec, memBackend(t), tuples, []int64{500})
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if len(got[k]) != 1 || got[k][0] != "250" {
			t.Errorf("%s = %v, want [250] at end of stream", k, got[k])
		}
	}
}

func TestCustomWindows(t *testing.T) {
	// A custom assigner mimicking fixed windows; classified unaligned.
	spec := OperatorSpec{
		Assigner: window.CustomAssigner{AssignFunc: func(ts int64) []window.Window {
			start := ts / 50 * 50
			return []window.Window{{Start: start, End: start + 50}}
		}},
		Holistic: listLenAgg,
	}
	var tuples []Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, Tuple{Key: []byte("k"), TS: int64(i)})
	}
	got := collectOp(t, spec, memBackend(t), tuples, []int64{50})
	if len(got["k"]) != 2 || got["k"][0] != "50" || got["k"][1] != "50" {
		t.Errorf("custom windows = %v", got["k"])
	}
}

func TestLateTuplesDropped(t *testing.T) {
	spec := OperatorSpec{Assigner: window.FixedAssigner{Size: 100}, Holistic: listLenAgg}
	backend := memBackend(t)
	var emitted int
	op, _ := NewWindowOperator(spec, backend, func(Tuple) { emitted++ })
	op.OnTuple(Tuple{Key: []byte("k"), TS: 10})
	op.OnWatermark(150, 0) // window [0,100) fires
	if emitted != 1 {
		t.Fatalf("emitted = %d", emitted)
	}
	op.OnTuple(Tuple{Key: []byte("k"), TS: 20}) // late for [0,100)
	if st := op.Stats(); st.LateDropped != 1 {
		t.Errorf("LateDropped = %d", st.LateDropped)
	}
	op.Finish(0)
	if emitted != 1 {
		t.Errorf("late tuple produced output")
	}
	backend.Destroy()
}

func TestSpecValidation(t *testing.T) {
	bad := []OperatorSpec{
		{},
		{Assigner: window.FixedAssigner{Size: 1}},
		{Assigner: window.FixedAssigner{Size: 1}, Holistic: listLenAgg, Incremental: countAgg},
	}
	for i, spec := range bad {
		if _, err := NewWindowOperator(spec, nil, nil); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

// TestOperatorAcrossAllBackends runs the same fixed-window workload over
// every backend and requires identical results — the SPE-side proof that
// the adapters are interchangeable.
func TestOperatorAcrossAllBackends(t *testing.T) {
	workload := func() []Tuple {
		var tuples []Tuple
		for i := 0; i < 2000; i++ {
			tuples = append(tuples, Tuple{
				Key:   []byte(fmt.Sprintf("key-%02d", i%10)),
				Value: []byte(fmt.Sprintf("v%04d", i)),
				TS:    int64(i),
			})
		}
		return tuples
	}
	for _, holistic := range []bool{true, false} {
		var reference map[string][]string
		for _, kind := range statebackend.Kinds() {
			name := fmt.Sprintf("holistic=%v/%s", holistic, kind)
			t.Run(name, func(t *testing.T) {
				agg := core.AggIncremental
				if holistic {
					agg = core.AggHolistic
				}
				backend, err := statebackend.Open(statebackend.Config{
					Kind:       kind,
					Dir:        filepath.Join(t.TempDir(), string(kind)),
					Agg:        agg,
					WindowKind: window.Fixed,
					Assigner:   window.FixedAssigner{Size: 500},
				})
				if err != nil {
					t.Fatal(err)
				}
				spec := OperatorSpec{Assigner: window.FixedAssigner{Size: 500}}
				if holistic {
					spec.Holistic = listLenAgg
				} else {
					spec.Incremental = IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
						ResultFunc: func(acc []byte) []byte {
							return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
						}}
				}
				got := collectOp(t, spec, backend, workload(), []int64{500, 1000, 1500})
				if reference == nil {
					reference = got
					// Sanity: 10 keys × 4 windows × 50 tuples.
					if len(got) != 10 {
						t.Fatalf("reference has %d keys", len(got))
					}
					for k, vs := range got {
						if len(vs) != 4 {
							t.Fatalf("%s: %v", k, vs)
						}
						for _, v := range vs {
							if v != "50" {
								t.Fatalf("%s: %v", k, vs)
							}
						}
					}
					return
				}
				if len(got) != len(reference) {
					t.Fatalf("keys = %d, reference %d", len(got), len(reference))
				}
				for k, want := range reference {
					if len(got[k]) != len(want) {
						t.Fatalf("%s: %v want %v", k, got[k], want)
					}
					for i := range want {
						if got[k][i] != want[i] {
							t.Fatalf("%s[%d]: %q want %q", k, i, got[k][i], want[i])
						}
					}
				}
			})
		}
	}
}

func TestPipelineSingleStage(t *testing.T) {
	pipe := &Pipeline{
		Stages: []Stage{{
			Name:        "count",
			Parallelism: 4,
			Window: &OperatorSpec{
				Assigner: window.FixedAssigner{Size: 100},
				Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
					ResultFunc: func(acc []byte) []byte {
						return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
					}},
			},
			NewBackend: func(int) (statebackend.Backend, error) {
				return statebackend.Open(statebackend.Config{Kind: statebackend.KindInMem})
			},
		}},
		WatermarkEvery: 50,
	}
	var mu sync.Mutex
	results := make(map[string]int)
	source := func(emit func(Tuple)) {
		for i := 0; i < 10000; i++ {
			emit(Tuple{Key: []byte(fmt.Sprintf("key-%03d", i%100)), TS: int64(i)})
		}
	}
	res, err := Run(pipe, source, func(t Tuple) {
		mu.Lock()
		results[string(t.Key)]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != 10000 {
		t.Errorf("TuplesIn = %d", res.TuplesIn)
	}
	// 100 keys x 100 windows of [i*100,(i+1)*100): each window holds one
	// tuple per key per window... 10000 tuples / 100 keys = 100 per key,
	// spread over 100 windows of size 100 (1 tuple each per key).
	if len(results) != 100 {
		t.Fatalf("result keys = %d", len(results))
	}
	for k, n := range results {
		if n != 100 {
			t.Errorf("%s emitted %d windows, want 100", k, n)
		}
	}
	if res.Results != 10000 {
		t.Errorf("Results = %d", res.Results)
	}
	if res.ThroughputTPS <= 0 || res.Latency.Count() == 0 {
		t.Error("missing throughput/latency measurements")
	}
}

func TestPipelineTwoWindowStages(t *testing.T) {
	// Stage 1: per-key count in fixed windows. Stage 2: global per-window
	// max via a map stage rekeying to the window, then a second window
	// stage picking the max count.
	mkBackend := func(int) (statebackend.Backend, error) {
		return statebackend.Open(statebackend.Config{Kind: statebackend.KindInMem})
	}
	pipe := &Pipeline{
		Stages: []Stage{
			{
				Name:        "count-per-key",
				Parallelism: 2,
				Window: &OperatorSpec{
					Assigner: window.FixedAssigner{Size: 100},
					Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
						ResultFunc: func(acc []byte) []byte {
							return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
						}},
				},
				NewBackend: mkBackend,
			},
			{
				Name:        "rekey",
				Parallelism: 1,
				Map: func(t Tuple, emit func(Tuple)) {
					emit(Tuple{Key: []byte("all"), Value: t.Value, TS: t.TS, WallNS: t.WallNS})
				},
			},
			{
				Name:        "max",
				Parallelism: 2,
				Window: &OperatorSpec{
					Assigner: window.FixedAssigner{Size: 100},
					Incremental: IncrementalFunc{
						AddFunc: func(acc []byte, t Tuple) []byte {
							cur, _ := strconv.Atoi(string(t.Value))
							if acc != nil {
								if old, _ := strconv.Atoi(string(acc)); old > cur {
									cur = old
								}
							}
							return []byte(strconv.Itoa(cur))
						},
						MergeFunc: func(a, b []byte) []byte {
							x, _ := strconv.Atoi(string(a))
							y, _ := strconv.Atoi(string(b))
							if y > x {
								x = y
							}
							return []byte(strconv.Itoa(x))
						},
					},
				},
				NewBackend: mkBackend,
			},
		},
		WatermarkEvery: 25,
	}
	// Key k0 appears 3x per window, k1..k4 once.
	source := func(emit func(Tuple)) {
		for w := 0; w < 20; w++ {
			base := int64(w * 100)
			for i := 0; i < 5; i++ {
				emit(Tuple{Key: []byte(fmt.Sprintf("k%d", i)), TS: base + int64(i)})
			}
			emit(Tuple{Key: []byte("k0"), TS: base + 50})
			emit(Tuple{Key: []byte("k0"), TS: base + 51})
		}
	}
	var mu sync.Mutex
	var maxes []string
	res, err := Run(pipe, source, func(t Tuple) {
		mu.Lock()
		maxes = append(maxes, string(t.Value))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != 140 {
		t.Errorf("TuplesIn = %d", res.TuplesIn)
	}
	if len(maxes) != 20 {
		t.Fatalf("final maxes = %v", maxes)
	}
	for _, m := range maxes {
		if m != "3" {
			t.Fatalf("window max = %v, want 3 (k0's count)", maxes)
		}
	}
}

func TestPipelineErrorsPropagate(t *testing.T) {
	pipe := &Pipeline{Stages: []Stage{}}
	if _, err := Run(pipe, func(func(Tuple)) {}, nil); err == nil {
		t.Error("empty pipeline should fail")
	}
}

func TestRouteKeyStable(t *testing.T) {
	for par := 1; par <= 8; par++ {
		a := routeKey([]byte("some-key"), par)
		b := routeKey([]byte("some-key"), par)
		if a != b || a < 0 || a >= par {
			t.Fatalf("routeKey unstable or out of range: %d/%d par=%d", a, b, par)
		}
	}
}

func TestCustomWindowProfilerFeedsAdaptivePredictor(t *testing.T) {
	// A custom session-like window (fixed 100ms extension) with a shared
	// AdaptivePredictor: the operator reports triggers, the predictor
	// learns the lag, and a FlowKV backend using it starts prefetching.
	profiler := &window.AdaptivePredictor{MinSamples: 8}
	assigner := window.CustomAssigner{AssignFunc: func(ts int64) []window.Window {
		start := ts / 100 * 100
		return []window.Window{{Start: start, End: start + 100}}
	}}
	backend, err := statebackend.Open(statebackend.Config{
		Kind:       statebackend.KindFlowKV,
		Dir:        filepath.Join(t.TempDir(), "custom"),
		Agg:        core.AggHolistic,
		WindowKind: window.Custom,
		Assigner:   assigner,
		FlowKV: core.Options{
			WriteBufferBytes: 1 << 10, // force the disk path
			Predictor:        profiler,
			Instances:        1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := OperatorSpec{
		Assigner: assigner,
		Holistic: listLenAgg,
		Profiler: profiler,
	}
	var results int
	op, err := NewWindowOperator(spec, backend, func(Tuple) { results++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%02d", i%32)
		ts := int64(i)
		if err := op.OnTuple(Tuple{Key: []byte(key), Value: make([]byte, 40), TS: ts}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := op.OnWatermark(ts, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := op.Finish(0); err != nil {
		t.Fatal(err)
	}
	if profiler.Samples() == 0 {
		t.Fatal("operator never reported triggers to the profiler")
	}
	if _, ok := profiler.ETT(window.Window{Start: 0, End: 100}, 50); !ok {
		t.Fatal("profiler did not warm up")
	}
	st, _ := statebackend.FlowKVStats(backend)
	if st.Hits == 0 {
		t.Errorf("no prefetch hits despite learned ETTs (misses=%d)", st.Misses)
	}
	if results == 0 {
		t.Fatal("no results")
	}
	backend.Destroy()
}

// failingBackend injects an error after N operations to exercise the
// pipeline's failure propagation.
type failingBackend struct {
	statebackend.Backend
	remaining int
}

func (f *failingBackend) Append(key, value []byte, w window.Window, ts int64) error {
	if f.remaining--; f.remaining < 0 {
		return fmt.Errorf("injected backend failure")
	}
	return f.Backend.Append(key, value, w, ts)
}

func TestPipelinePropagatesBackendFailure(t *testing.T) {
	pipe := &Pipeline{
		Stages: []Stage{{
			Name:        "w",
			Parallelism: 2,
			Window:      &OperatorSpec{Assigner: window.FixedAssigner{Size: 100}, Holistic: listLenAgg},
			NewBackend: func(int) (statebackend.Backend, error) {
				return &failingBackend{Backend: memBackend(t), remaining: 10}, nil
			},
		}},
	}
	source := func(emit func(Tuple)) {
		for i := 0; i < 1000; i++ {
			emit(Tuple{Key: []byte(fmt.Sprintf("k%d", i)), TS: int64(i)})
		}
	}
	res, err := Run(pipe, source, nil)
	if err == nil {
		t.Fatal("backend failure not propagated")
	}
	if res == nil || res.Err == nil {
		t.Fatal("result missing error")
	}
}

func TestPipelineBackendConstructionFailure(t *testing.T) {
	pipe := &Pipeline{
		Stages: []Stage{{
			Name:        "w",
			Parallelism: 1,
			Window:      &OperatorSpec{Assigner: window.FixedAssigner{Size: 100}, Holistic: listLenAgg},
			NewBackend: func(int) (statebackend.Backend, error) {
				return nil, fmt.Errorf("no disk")
			},
		}},
	}
	if _, err := Run(pipe, func(func(Tuple)) {}, nil); err == nil {
		t.Fatal("backend construction failure not propagated")
	}
}

func TestMapOnlyPipeline(t *testing.T) {
	pipe := &Pipeline{
		Stages: []Stage{{
			Name: "double",
			Map: func(tp Tuple, emit func(Tuple)) {
				emit(tp)
				emit(tp)
			},
		}},
	}
	var n int
	var mu sync.Mutex
	res, err := Run(pipe, func(emit func(Tuple)) {
		for i := 0; i < 100; i++ {
			emit(Tuple{Key: []byte("k"), TS: int64(i)})
		}
	}, func(Tuple) { mu.Lock(); n++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 || res.Results != 200 {
		t.Fatalf("map-only results = %d/%d", n, res.Results)
	}
}

func TestEmptySourcePipeline(t *testing.T) {
	pipe := &Pipeline{
		Stages: []Stage{{
			Name:   "w",
			Window: &OperatorSpec{Assigner: window.FixedAssigner{Size: 100}, Holistic: listLenAgg},
			NewBackend: func(int) (statebackend.Backend, error) {
				return statebackend.Open(statebackend.Config{Kind: statebackend.KindInMem})
			},
		}},
	}
	res, err := Run(pipe, func(func(Tuple)) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != 0 || res.Results != 0 {
		t.Fatalf("empty source: %d/%d", res.TuplesIn, res.Results)
	}
}

func TestOutOfOrderWithinWatermarkSlack(t *testing.T) {
	// Tuples may arrive out of order as long as they are not late
	// relative to the watermark; results must be identical to in-order.
	spec := OperatorSpec{Assigner: window.FixedAssigner{Size: 100}, Holistic: listLenAgg}
	tuples := []Tuple{
		{Key: []byte("k"), TS: 50},
		{Key: []byte("k"), TS: 10}, // out of order, not late
		{Key: []byte("k"), TS: 90},
		{Key: []byte("k"), TS: 30},
	}
	got := collectOp(t, spec, memBackend(t), tuples, nil)
	if len(got["k"]) != 1 || got["k"][0] != "4" {
		t.Fatalf("out-of-order window = %v", got)
	}
}
