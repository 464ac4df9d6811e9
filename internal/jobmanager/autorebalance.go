package jobmanager

import (
	"sort"
	"time"

	"flowkv/internal/clock"
	"flowkv/internal/core"
)

// AutoRebalanceOptions configures the latency-driven rebalancer.
type AutoRebalanceOptions struct {
	// Interval is the scoring cadence. Default 5s.
	Interval time.Duration
	// SlowFactor is the relative cut: a slot whose probe-latency EWMA
	// exceeds SlowFactor times the pool median is slow. Default 4.
	SlowFactor float64
	// MinLatency is the absolute floor under which a slot is never
	// called slow, whatever the ratios say — on fast media, nanosecond
	// noise produces huge factors over a tiny median. Default 20ms.
	MinLatency time.Duration
	// MaxMovesPerTick bounds how many tenants move per tick, so one bad
	// scoring round cannot stampede the whole pool onto one slot.
	// Default 1.
	MaxMovesPerTick int
	// Clock paces the ticks; nil uses the system clock.
	Clock clock.Clock
}

// StartAutoRebalance runs the latency-driven rebalancer: the gray-slot
// counterpart of the failure prober. It registers with the pool, so a
// running prober times the healthy slots until stop unregisters it. Each
// tick it scores every healthy slot's probe-latency EWMA against the
// pool median, marks the outliers slow, and drains tenants off slow
// slots — including those flagged slow by a store-level
// ReasonLatency degrade — through the ordinary clean-stop Rebalance
// path, bounded by MaxMovesPerTick. A slot is only drained when a fast
// healthy destination exists; with nowhere better to go, tenants stay
// put. The returned stop function halts the rebalancer and waits for it
// to exit.
func (m *Manager) StartAutoRebalance(opts AutoRebalanceOptions) (stop func()) {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.SlowFactor <= 1 {
		opts.SlowFactor = 4
	}
	if opts.MinLatency <= 0 {
		opts.MinLatency = 20 * time.Millisecond
	}
	if opts.MaxMovesPerTick <= 0 {
		opts.MaxMovesPerTick = 1
	}
	clk := clock.Or(opts.Clock)
	done := make(chan struct{})
	finished := make(chan struct{})
	// The ticker is created before the goroutine starts so a test
	// advancing a fake clock right after StartAutoRebalance returns
	// cannot race the registration.
	tick := clk.NewTicker(opts.Interval)
	m.pool.addScorer(1)
	go func() {
		defer close(finished)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C():
			}
			m.rebalanceTick(opts)
		}
	}()
	return func() {
		close(done)
		<-finished
		m.pool.addScorer(-1)
	}
}

// rebalanceTick runs one scoring-and-draining round and returns how
// many tenants it moved.
func (m *Manager) rebalanceTick(opts AutoRebalanceOptions) int {
	sts := m.pool.Status()

	// Median probe latency across healthy slots with a sample. The
	// median (not the mean) keeps one pathological slot from dragging
	// the baseline up toward itself; the lower middle is taken so that
	// in a two-slot pool the baseline is the fast slot, not the suspect.
	var lats []time.Duration
	for _, st := range sts {
		if st.Healthy && st.ProbeLatency > 0 {
			lats = append(lats, st.ProbeLatency)
		}
	}
	var median time.Duration
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		median = lats[(len(lats)-1)/2]
	}

	for i, st := range sts {
		if !st.Healthy || st.ProbeLatency == 0 {
			continue
		}
		cut := opts.MinLatency
		if median > 0 {
			if rel := time.Duration(float64(median) * opts.SlowFactor); rel > cut {
				cut = rel
			}
		}
		switch {
		case st.ProbeLatency > cut:
			m.pool.markSlow(st.ID, true)
			sts[i].Slow = true
		case st.Slow && st.Reason != core.ReasonLatency:
			// Probes came back fast and the stores on the slot are not
			// currently latency-degraded: the gray episode is over.
			m.pool.markSlow(st.ID, false)
			sts[i].Slow = false
		}
	}

	// Draining a slow slot only helps if a fast slot can take the load.
	fast := 0
	for _, st := range sts {
		if st.Healthy && !st.Slow {
			fast++
		}
	}
	if fast == 0 {
		return 0
	}

	moves := 0
	for _, st := range sts {
		if !st.Healthy || !st.Slow {
			continue
		}
		for _, tenant := range st.Tenants {
			if moves >= opts.MaxMovesPerTick {
				return moves
			}
			// Rebalance fails for tenants that already finished or are
			// mid-move; those are simply not drained this tick.
			if err := m.Rebalance(tenant); err == nil {
				m.pool.noteRebalance(st.ID)
				moves++
			}
		}
	}
	return moves
}
