// Sessionization: the workload class FlowKV's AUR store was built for.
// A clickstream is grouped into per-user session windows (30 s
// inactivity gap) and each session's dwell statistics are computed
// holistically — a textbook Append + Unaligned Read pattern, with
// predictive batch read prefetching the sessions that expire soonest.
//
//	go run ./examples/sessionization
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

const sessionGapMs = 30_000

func main() {
	dir, err := os.MkdirTemp("", "flowkv-sessions-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	assigner := window.SessionAssigner{Gap: sessionGapMs}

	// Session summary: page count and span, computed over the complete
	// click list (holistic → AUR).
	summarize := spe.HolisticFunc(func(user []byte, clicks [][]byte) []byte {
		var first, last int64
		for i, c := range clicks {
			ts, _, err := binio.Varint(c)
			if err != nil {
				continue
			}
			if i == 0 || ts < first {
				first = ts
			}
			if ts > last {
				last = ts
			}
		}
		out := binio.PutUvarint(nil, uint64(len(clicks)))
		return binio.PutVarint(out, last-first)
	})

	pipe := &spe.Pipeline{
		Stages: []spe.Stage{{
			Name:        "sessionize",
			Parallelism: 2,
			Window: &spe.OperatorSpec{
				Assigner: assigner,
				Holistic: summarize,
			},
			NewBackend: func(worker int) (statebackend.Backend, error) {
				return statebackend.Open(statebackend.Config{
					Kind:       statebackend.KindFlowKV,
					Dir:        filepath.Join(dir, fmt.Sprintf("worker-%d", worker)),
					Agg:        core.AggHolistic,
					WindowKind: window.Session,
					Assigner:   assigner,
					// A small write buffer keeps state on disk, as it
					// would be at production scale, so the run exercises
					// the segment scan and predictive batch read.
					FlowKV: core.Options{WriteBufferBytes: 8 << 10},
				})
			},
		}},
		WatermarkEvery: 100,
	}

	// Synthetic clickstream: 200 users with bursty activity.
	source := func(emit func(spe.Tuple)) {
		rng := rand.New(rand.NewSource(7))
		type userState struct{ next int64 }
		users := make([]userState, 200)
		for now := int64(0); now < 600_000; now += 50 {
			u := rng.Intn(len(users))
			if users[u].next > now && rng.Intn(10) > 0 {
				continue
			}
			// A click burst: 1-8 pages, then idle past the gap.
			burst := 1 + rng.Intn(8)
			for i := 0; i < burst; i++ {
				ts := now + int64(i)*1_000
				emit(spe.Tuple{
					Key:   []byte(fmt.Sprintf("user-%03d", u)),
					Value: binio.PutVarint(nil, ts),
					TS:    ts,
				})
			}
			users[u].next = now + sessionGapMs + int64(rng.Intn(120_000))
		}
	}

	var mu sync.Mutex
	type sess struct {
		user   string
		pages  uint64
		spanMs int64
	}
	var sessions []sess
	res, err := spe.Run(pipe, source, func(t spe.Tuple) {
		pages, n, err := binio.Uvarint(t.Value)
		if err != nil {
			return
		}
		span, _, _ := binio.Varint(t.Value[n:])
		mu.Lock()
		sessions = append(sessions, sess{user: string(t.Key), pages: pages, spanMs: span})
		mu.Unlock()
	})
	if err != nil {
		log.Fatal(err)
	}

	sort.Slice(sessions, func(i, j int) bool { return sessions[i].pages > sessions[j].pages })
	fmt.Printf("clicks processed:  %d\n", res.TuplesIn)
	fmt.Printf("sessions closed:   %d\n", len(sessions))
	fmt.Printf("throughput:        %.0f clicks/s\n", res.ThroughputTPS)
	fmt.Printf("prefetch hits:     %d  misses: %d  (hit ratio %.2f)\n",
		res.FlowKV.Hits, res.FlowKV.Misses, res.FlowKV.HitRatio())
	fmt.Println("\nlongest sessions:")
	for i, s := range sessions {
		if i == 5 {
			break
		}
		fmt.Printf("  %s  %3d pages over %5.1fs\n", s.user, s.pages, float64(s.spanMs)/1000)
	}
}
