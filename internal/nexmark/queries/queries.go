// Package queries implements the eight NEXMark queries of the paper's
// evaluation (§6, "Workload"), as pipelines over the mini SPE. Each query
// is listed with its window operations and the store pattern they induce:
//
//	Q5         bid counts per auction in sliding windows (RMW) feeding a
//	           consecutive windowed max (RMW)
//	Q5-Append  same counts (RMW) but the max found without incremental
//	           aggregation (AAR)
//	Q7         highest bid per bidder in fixed windows, append enforced
//	           by side inputs (AAR)
//	Q7-Session Q7 with the fixed window replaced by a session window (AUR)
//	Q8         new users who created an auction in the same fixed window —
//	           a windowed join (AAR)
//	Q11        bid count per bidder in session windows (RMW)
//	Q11-Median Q11 with the count replaced by a non-associative median (AUR)
//	Q12        bid count per bidder in a single global window (RMW)
//
// The remaining NEXMark queries are excluded for the paper's reasons:
// stateless (Q0-Q2), no window state (Q3), custom windows FlowKV cannot
// classify (Q4, Q6, Q9), or pathological trigger overhead (Q10).
package queries

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faster"
	"flowkv/internal/lsm"
	"flowkv/internal/memstore"
	"flowkv/internal/metrics"
	"flowkv/internal/nexmark"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// Config parameterizes a query build.
type Config struct {
	// Backend selects the state store under test.
	Backend statebackend.Kind
	// BaseDir roots each worker's private state directory.
	BaseDir string
	// Parallelism is the per-stage worker count. Default 2.
	Parallelism int
	// WindowMs is the window size for fixed/sliding windows and the
	// session gap for session windows. Default 10_000.
	WindowMs int64
	// FlowKV, LSM, Faster, Mem pass tuning overrides to the backend.
	FlowKV core.Options
	LSM    lsm.Options
	Faster faster.Options
	Mem    memstore.Options
	// Breakdown receives store CPU-time and I/O accounting.
	Breakdown *metrics.Breakdown
	// WatermarkEvery tunes the SPE runtime's watermark cadence.
	WatermarkEvery int
}

func (c *Config) fill() {
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.WindowMs <= 0 {
		c.WindowMs = 10_000
	}
}

// Query is a built NEXMark query: the pipeline plus the event adapter
// that turns generator events into keyed tuples for stage 0.
type Query struct {
	// Name is the query name (e.g. "Q7-Session").
	Name string
	// Pipeline is the SPE dataflow.
	Pipeline *spe.Pipeline
	// Adapt converts one event into zero or more input tuples.
	Adapt func(ev nexmark.Event, emit func(spe.Tuple))
}

// Source returns an SPE source replaying the given events through the
// query's adapter.
func (q *Query) Source(events []nexmark.Event) spe.Source {
	return func(emit func(spe.Tuple)) {
		for _, ev := range events {
			q.Adapt(ev, emit)
		}
	}
}

// Names lists the evaluated queries in the paper's order.
func Names() []string {
	return []string{"Q5", "Q5-Append", "Q7", "Q7-Session", "Q8", "Q11", "Q11-Median", "Q12"}
}

// PatternOf returns the store access pattern a query exercises, as the
// paper labels it (mixed queries report "RMW+AAR" etc.).
func PatternOf(name string) string {
	switch name {
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

// Build constructs the named query for the given configuration.
func Build(name string, cfg Config) (*Query, error) {
	cfg.fill()
	switch name {
	case "Q5":
		return buildQ5(cfg, false)
	case "Q5-Append":
		return buildQ5(cfg, true)
	case "Q7":
		return buildQ7(cfg, false)
	case "Q7-Session":
		return buildQ7(cfg, true)
	case "Q8":
		return buildQ8(cfg)
	case "Q11":
		return buildQ11(cfg)
	case "Q11-Median":
		return buildQ11Median(cfg)
	case "Q12":
		return buildQ12(cfg)
	default:
		return nil, fmt.Errorf("queries: unknown query %q", name)
	}
}

// backendFactory returns a per-worker backend constructor for one stage.
func backendFactory(cfg Config, stage string, agg core.AggKind, a window.Assigner) func(int) (statebackend.Backend, error) {
	return func(worker int) (statebackend.Backend, error) {
		return statebackend.Open(statebackend.Config{
			Kind:       cfg.Backend,
			Dir:        filepath.Join(cfg.BaseDir, stage, fmt.Sprintf("worker-%02d", worker)),
			Agg:        agg,
			WindowKind: a.Kind(),
			Assigner:   a,
			FlowKV:     cfg.FlowKV,
			LSM:        cfg.LSM,
			Faster:     cfg.Faster,
			Mem:        cfg.Mem,
			Breakdown:  cfg.Breakdown,
		})
	}
}

func pipeline(cfg Config, stages ...spe.Stage) *spe.Pipeline {
	return &spe.Pipeline{
		Stages:         stages,
		WatermarkEvery: cfg.WatermarkEvery,
	}
}

// ---- value encodings ----

func keyOf(id int64) []byte { return strconv.AppendInt(nil, id, 10) }

func encPrice(p int64) []byte { return binio.PutVarint(nil, p) }

func decPrice(v []byte) int64 {
	p, _, err := binio.Varint(v)
	if err != nil {
		return 0
	}
	return p
}

// encAuctionCount packs (auction, count) for Q5's second stage.
func encAuctionCount(auction, count int64) []byte {
	b := binio.PutVarint(nil, auction)
	return binio.PutVarint(b, count)
}

func decAuctionCount(v []byte) (auction, count int64) {
	a, n, err := binio.Varint(v)
	if err != nil {
		return 0, 0
	}
	c, _, err := binio.Varint(v[n:])
	if err != nil {
		return a, 0
	}
	return a, c
}

// ---- aggregate functions ----

// countAgg counts tuples incrementally (associative & commutative: RMW).
var countAgg = spe.IncrementalFunc{
	AddFunc: func(acc []byte, _ spe.Tuple) []byte {
		var c int64
		if acc != nil {
			c = decPrice(acc)
		}
		return binio.PutVarint(nil, c+1)
	},
	MergeFunc: func(a, b []byte) []byte {
		return binio.PutVarint(nil, decPrice(a)+decPrice(b))
	},
}

// maxPriceHolistic finds the highest of the appended bid prices; the
// window state holds the full bid list (Append pattern).
var maxPriceHolistic = spe.HolisticFunc(func(_ []byte, values [][]byte) []byte {
	if len(values) == 0 {
		return nil
	}
	max := decPrice(values[0])
	for _, v := range values[1:] {
		if p := decPrice(v); p > max {
			max = p
		}
	}
	return encPrice(max)
})

// medianPriceHolistic computes the median bid price, the paper's
// non-associative aggregate (Q11-Median).
var medianPriceHolistic = spe.HolisticFunc(func(_ []byte, values [][]byte) []byte {
	if len(values) == 0 {
		return nil
	}
	prices := make([]int64, len(values))
	for i, v := range values {
		prices[i] = decPrice(v)
	}
	sort.Slice(prices, func(i, j int) bool { return prices[i] < prices[j] })
	n := len(prices)
	med := prices[n/2]
	if n%2 == 0 {
		med = (prices[n/2-1] + prices[n/2]) / 2
	}
	return encPrice(med)
})

// betterAuctionCount orders (auction, count) pairs by count descending
// with auction id ascending as the tie-break, so the Q5 winner is
// deterministic regardless of worker interleaving.
func betterAuctionCount(a, b []byte) []byte {
	aa, ca := decAuctionCount(a)
	ab, cb := decAuctionCount(b)
	if cb > ca || (cb == ca && ab < aa) {
		return b
	}
	return a
}

// maxAuctionCountAgg keeps the (auction, count) pair with the highest
// count (incremental max: RMW).
var maxAuctionCountAgg = spe.IncrementalFunc{
	AddFunc: func(acc []byte, t spe.Tuple) []byte {
		if acc == nil {
			return append([]byte(nil), t.Value...)
		}
		return append([]byte(nil), betterAuctionCount(acc, t.Value)...)
	},
	MergeFunc: func(a, b []byte) []byte {
		return betterAuctionCount(a, b)
	},
}

// maxAuctionCountHolistic finds the same winner over the full pair list
// (no incremental aggregation: AAR — Q5-Append's second stage).
var maxAuctionCountHolistic = spe.HolisticFunc(func(_ []byte, values [][]byte) []byte {
	if len(values) == 0 {
		return nil
	}
	best := values[0]
	for _, v := range values[1:] {
		best = betterAuctionCount(best, v)
	}
	return append([]byte(nil), best...)
})

// ---- event adapters ----

func bidsByAuction(ev nexmark.Event, emit func(spe.Tuple)) {
	if ev.Kind != nexmark.KindBid {
		return
	}
	emit(spe.Tuple{Key: keyOf(ev.Bid.Auction), Value: encPrice(ev.Bid.Price), TS: ev.Bid.DateTime})
}

func bidsByBidder(ev nexmark.Event, emit func(spe.Tuple)) {
	if ev.Kind != nexmark.KindBid {
		return
	}
	emit(spe.Tuple{Key: keyOf(ev.Bid.Bidder), Value: encPrice(ev.Bid.Price), TS: ev.Bid.DateTime})
}

// ---- queries ----

// buildQ5 counts bids per auction in sliding windows (RMW), then finds
// the auction with the most bids in a consecutive window operation —
// incrementally for Q5 (RMW), holistically for Q5-Append (AAR).
func buildQ5(cfg Config, appendVariant bool) (*Query, error) {
	slide := cfg.WindowMs / 2
	if slide <= 0 {
		slide = 1
	}
	countAssigner := window.SlidingAssigner{Size: cfg.WindowMs, Slide: slide}
	maxAssigner := window.FixedAssigner{Size: slide}

	countStage := spe.Stage{
		Name:        "count-bids",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner:    countAssigner,
			Incremental: countAgg,
		},
		NewBackend: backendFactory(cfg, "count-bids", core.AggIncremental, countAssigner),
	}
	rekey := spe.Stage{
		Name:        "rekey",
		Parallelism: 1,
		Map: func(t spe.Tuple, emit func(spe.Tuple)) {
			auction, err := strconv.ParseInt(string(t.Key), 10, 64)
			if err != nil {
				return
			}
			count := decPrice(t.Value)
			emit(spe.Tuple{
				Key:    []byte("all"),
				Value:  encAuctionCount(auction, count),
				TS:     t.TS,
				WallNS: t.WallNS,
			})
		},
	}
	maxStage := spe.Stage{
		Name:        "max-auction",
		Parallelism: 1, // single logical key
	}
	if appendVariant {
		maxStage.Window = &spe.OperatorSpec{Assigner: maxAssigner, Holistic: maxAuctionCountHolistic}
		maxStage.NewBackend = backendFactory(cfg, "max-auction", core.AggHolistic, maxAssigner)
	} else {
		maxStage.Window = &spe.OperatorSpec{Assigner: maxAssigner, Incremental: maxAuctionCountAgg}
		maxStage.NewBackend = backendFactory(cfg, "max-auction", core.AggIncremental, maxAssigner)
	}
	name := "Q5"
	if appendVariant {
		name = "Q5-Append"
	}
	return &Query{
		Name:     name,
		Pipeline: pipeline(cfg, countStage, rekey, maxStage),
		Adapt:    bidsByAuction,
	}, nil
}

// buildQ7 finds the highest bid per bidder within fixed windows (AAR) —
// the paper notes its side inputs enforce the append pattern — or within
// session windows for Q7-Session (AUR).
func buildQ7(cfg Config, sessionVariant bool) (*Query, error) {
	var assigner window.Assigner = window.FixedAssigner{Size: cfg.WindowMs}
	name := "Q7"
	if sessionVariant {
		assigner = window.SessionAssigner{Gap: cfg.WindowMs}
		name = "Q7-Session"
	}
	stage := spe.Stage{
		Name:        "max-bid",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner: assigner,
			Holistic: maxPriceHolistic,
		},
		NewBackend: backendFactory(cfg, "max-bid", core.AggHolistic, assigner),
	}
	return &Query{Name: name, Pipeline: pipeline(cfg, stage), Adapt: bidsByBidder}, nil
}

// buildQ8 monitors users who registered and opened an auction within the
// same fixed window: a windowed join of the person and auction streams
// keyed by person (AAR).
func buildQ8(cfg Config) (*Query, error) {
	assigner := window.FixedAssigner{Size: cfg.WindowMs}
	join := spe.HolisticFunc(func(key []byte, values [][]byte) []byte {
		var persons, auctions int
		for _, v := range values {
			if len(v) == 0 {
				continue
			}
			switch v[0] {
			case 'P':
				persons++
			case 'A':
				auctions++
			}
		}
		if persons > 0 && auctions > 0 {
			return []byte(fmt.Sprintf("new-seller:%s", key))
		}
		return nil
	})
	stage := spe.Stage{
		Name:        "join",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner: assigner,
			Holistic: join,
		},
		NewBackend: backendFactory(cfg, "join", core.AggHolistic, assigner),
	}
	adapt := func(ev nexmark.Event, emit func(spe.Tuple)) {
		switch ev.Kind {
		case nexmark.KindPerson:
			emit(spe.Tuple{Key: keyOf(ev.Person.ID), Value: []byte{'P'}, TS: ev.Person.DateTime})
		case nexmark.KindAuction:
			emit(spe.Tuple{Key: keyOf(ev.Auction.Seller), Value: []byte{'A'}, TS: ev.Auction.DateTime})
		}
	}
	return &Query{Name: "Q8", Pipeline: pipeline(cfg, stage), Adapt: adapt}, nil
}

// buildQ11 counts bids per bidder within session windows (RMW).
func buildQ11(cfg Config) (*Query, error) {
	assigner := window.SessionAssigner{Gap: cfg.WindowMs}
	stage := spe.Stage{
		Name:        "session-count",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner:    assigner,
			Incremental: countAgg,
		},
		NewBackend: backendFactory(cfg, "session-count", core.AggIncremental, assigner),
	}
	return &Query{Name: "Q11", Pipeline: pipeline(cfg, stage), Adapt: bidsByBidder}, nil
}

// buildQ11Median replaces Q11's count with the non-associative median
// (AUR).
func buildQ11Median(cfg Config) (*Query, error) {
	assigner := window.SessionAssigner{Gap: cfg.WindowMs}
	stage := spe.Stage{
		Name:        "session-median",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner: assigner,
			Holistic: medianPriceHolistic,
		},
		NewBackend: backendFactory(cfg, "session-median", core.AggHolistic, assigner),
	}
	return &Query{Name: "Q11-Median", Pipeline: pipeline(cfg, stage), Adapt: bidsByBidder}, nil
}

// buildQ12 counts bids per bidder within a single global window (RMW).
func buildQ12(cfg Config) (*Query, error) {
	assigner := window.GlobalAssigner{}
	stage := spe.Stage{
		Name:        "global-count",
		Parallelism: cfg.Parallelism,
		Window: &spe.OperatorSpec{
			Assigner:    assigner,
			Incremental: countAgg,
		},
		NewBackend: backendFactory(cfg, "global-count", core.AggIncremental, assigner),
	}
	return &Query{Name: "Q12", Pipeline: pipeline(cfg, stage), Adapt: bidsByBidder}, nil
}
