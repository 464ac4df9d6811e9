package spe

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flowkv/internal/core"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// sessionSource emits rounds sessions of 5 tuples for each of keys keys,
// interleaved so global timestamps are non-decreasing. Sessions of one
// key are 1000 apart, far beyond the 20 gap, so every key produces
// exactly rounds results of "5".
func sessionSource(keys, rounds int) Source {
	return func(emit func(Tuple)) {
		for r := 0; r < rounds; r++ {
			base := int64(r) * 1000
			for i := 0; i < 5; i++ {
				for k := 0; k < keys; k++ {
					emit(Tuple{
						Key:   []byte(fmt.Sprintf("k%02d", k)),
						Value: []byte(strings.Repeat("v", 32)),
						TS:    base + int64(i)*2,
					})
				}
			}
		}
	}
}

// countSource emits one tuple per key at every timestamp in [0, 300):
// three full 100-wide fixed windows of 100 tuples for each key.
func countSource(keys int) Source {
	return func(emit func(Tuple)) {
		for ts := 0; ts < 300; ts++ {
			for k := 0; k < keys; k++ {
				emit(Tuple{Key: []byte(fmt.Sprintf("k%02d", k)), TS: int64(ts)})
			}
		}
	}
}

func collectSink() (func(Tuple), func() map[string][]string) {
	var mu sync.Mutex
	got := make(map[string][]string)
	sink := func(t Tuple) {
		mu.Lock()
		got[string(t.Key)] = append(got[string(t.Key)], string(t.Value))
		mu.Unlock()
	}
	return sink, func() map[string][]string {
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

func checkSessions(t *testing.T, got map[string][]string, keys, rounds int) {
	t.Helper()
	if len(got) != keys {
		t.Fatalf("results for %d keys, want %d", len(got), keys)
	}
	for k, vs := range got {
		if len(vs) != rounds {
			t.Errorf("key %s: %d results, want %d: %v", k, len(vs), rounds, vs)
			continue
		}
		for _, v := range vs {
			if v != "5" {
				t.Errorf("key %s: session size %s, want 5", k, v)
			}
		}
	}
}

// checkCounts checks countSource's results: 3 windows counting 100 for
// each of keys keys.
func checkCounts(t *testing.T, got map[string][]string, keys int) {
	t.Helper()
	if len(got) != keys {
		t.Fatalf("results for %d keys, want %d", len(got), keys)
	}
	for k, vs := range got {
		if len(vs) != 3 {
			t.Errorf("key %s: %d windows, want 3: %v", k, len(vs), vs)
			continue
		}
		for i, v := range vs {
			if v != "100" {
				t.Errorf("key %s window %d: count %s, want 100", k, i, v)
			}
		}
	}
}

// TestPrivateBackendsFourWorkers runs each state pattern at 4 workers,
// every worker over its own private store, and checks the exact result
// set. The FlowKV stores run at 1 KiB write buffers; the AUR sessions
// outgrow theirs, so that leg also drives flushes and predictive batch
// reads. The LSM baseline runs the session workload as a reference.
func TestPrivateBackendsFourWorkers(t *testing.T) {
	const keys, rounds = 32, 3
	sessions := window.SessionAssigner{Gap: 20}
	fixed := window.FixedAssigner{Size: 100}
	flowkv := func(agg core.AggKind, kind window.Kind, a window.Assigner, opts core.Options) func(dir string) (statebackend.Backend, error) {
		return func(dir string) (statebackend.Backend, error) {
			return statebackend.Open(statebackend.Config{
				Kind: statebackend.KindFlowKV, Dir: dir,
				Agg: agg, WindowKind: kind, Assigner: a, FlowKV: opts,
			})
		}
	}
	for _, tc := range []struct {
		name   string
		spec   OperatorSpec
		open   func(dir string) (statebackend.Backend, error)
		source Source
		check  func(t *testing.T, got map[string][]string)
		spills bool // the stores must evict to disk
	}{
		{
			name: "aur-session",
			spec: OperatorSpec{Assigner: sessions, Holistic: listLenAgg},
			open: flowkv(core.AggHolistic, window.Session, sessions, core.Options{
				WriteBufferBytes: 1 << 10, Instances: 4, MaxSpaceAmplification: 1.2,
			}),
			source: sessionSource(keys, rounds),
			check:  func(t *testing.T, got map[string][]string) { checkSessions(t, got, keys, rounds) },
			spills: true,
		},
		{
			name: "rmw-incremental",
			spec: OperatorSpec{
				Assigner: fixed,
				Incremental: IncrementalFunc{AddFunc: countAgg.AddFunc, MergeFunc: countAgg.MergeFunc,
					ResultFunc: func(acc []byte) []byte {
						return []byte(strconv.FormatUint(binary.LittleEndian.Uint64(acc), 10))
					}},
			},
			open:   flowkv(core.AggIncremental, window.Fixed, fixed, core.Options{WriteBufferBytes: 1 << 10, Instances: 4}),
			source: countSource(keys),
			check:  func(t *testing.T, got map[string][]string) { checkCounts(t, got, keys) },
		},
		{
			name:   "aar-holistic-aligned",
			spec:   OperatorSpec{Assigner: fixed, Holistic: listLenAgg},
			open:   flowkv(core.AggHolistic, window.Fixed, fixed, core.Options{WriteBufferBytes: 1 << 10, Instances: 4}),
			source: countSource(keys),
			check:  func(t *testing.T, got map[string][]string) { checkCounts(t, got, keys) },
		},
		{
			name: "lsm-session",
			spec: OperatorSpec{Assigner: sessions, Holistic: listLenAgg},
			open: func(dir string) (statebackend.Backend, error) {
				return statebackend.Open(statebackend.Config{Kind: statebackend.KindRocksDB, Dir: dir})
			},
			source: sessionSource(keys, rounds),
			check:  func(t *testing.T, got map[string][]string) { checkSessions(t, got, keys, rounds) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			spec := tc.spec
			pipe := &Pipeline{
				WatermarkEvery: 64,
				Stages: []Stage{{
					Name:        tc.name,
					Parallelism: 4,
					Window:      &spec,
					NewBackend: func(w int) (statebackend.Backend, error) {
						return tc.open(filepath.Join(base, fmt.Sprintf("w%d", w)))
					},
				}},
			}
			sink, got := collectSink()
			res, err := Run(pipe, tc.source, sink)
			if err != nil {
				t.Fatal(err)
			}
			if tc.spills && res.FlowKV.Evictions == 0 {
				t.Errorf("no store spilled: %+v", res.FlowKV)
			}
			tc.check(t, got())
		})
	}
}
