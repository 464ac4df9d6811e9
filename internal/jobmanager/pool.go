package jobmanager

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/clock"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
)

// Slot is one pooled store location: a directory (and filesystem seam)
// that a tenant's backends are built over. The pool hands slots to
// tenants and tracks each slot's health so a failing backend moves its
// tenants to a replacement instead of halting them.
type Slot struct {
	// ID names the slot in stats and failover records.
	ID string
	// Dir is the slot's state root; each tenant gets a subdirectory.
	Dir string
	// FS is the filesystem seam backends on this slot use (fault
	// injection); nil means the real filesystem.
	FS faultfs.FS
}

// SlotStatus is one slot's registry snapshot.
type SlotStatus struct {
	ID string `json:"id"`
	// Healthy reports the slot accepts new tenants.
	Healthy bool `json:"healthy"`
	// Err is the failure that marked the slot unhealthy ("" if none).
	Err string `json:"err,omitempty"`
	// Tenants currently placed on the slot, sorted.
	Tenants []string `json:"tenants,omitempty"`
	// Failovers counts tenants that were moved OFF this slot after it
	// failed.
	Failovers int64 `json:"failovers"`
	// Heals counts how many times the prober returned this slot to
	// rotation after it had failed.
	Heals int64 `json:"heals"`
	// Scrubs counts completed idle-slot scrub passes; ScrubCorrupt counts
	// the passes that found corruption (each of which also failed the
	// slot).
	Scrubs       int64 `json:"scrubs"`
	ScrubCorrupt int64 `json:"scrubCorrupt"`
	// Reason is the typed health reason from the slot's most recent store
	// health transition ("none" if never observed unhealthy).
	Reason core.HealthReason `json:"reason"`
	// Slow reports the slot is healthy but serving I/O slowly — a gray
	// failure. Slow slots stay in rotation (they work) but Acquire avoids
	// them when a faster slot exists, and the auto-rebalancer drains them.
	Slow bool `json:"slow,omitempty"`
	// ProbeLatency is the EWMA of recent media-probe round trips (0 until
	// a latency probe has run).
	ProbeLatency time.Duration `json:"probeLatency,omitempty"`
	// Rebalances counts tenants moved OFF this slot by latency-driven
	// rebalancing (distinct from Failovers, which count moves off a
	// failed slot).
	Rebalances int64 `json:"rebalances,omitempty"`
}

type slotState struct {
	slot      Slot
	healthy   bool
	err       error
	tenants   map[string]struct{}
	failovers int64
	heals     int64
	// probeOK counts consecutive successful probes since the slot
	// failed; the prober heals the slot once it reaches the
	// confirmation threshold.
	probeOK int
	// scrubs / scrubCorrupt count idle-slot scrub passes and the ones
	// that found corruption.
	scrubs       int64
	scrubCorrupt int64
	// lastReason is the typed reason from the most recent health
	// observation (ReasonNone until a store on the slot leaves Healthy).
	lastReason core.HealthReason
	// slow marks a gray slot: healthy, but its stores degraded on the
	// latency signal or its probes run far above the pool median.
	slow bool
	// probeEWMA smooths media-probe round-trip latency (0 = no sample).
	probeEWMA time.Duration
	// rebalances counts tenants moved off by the auto-rebalancer.
	rebalances int64
}

// Pool is the backend registry: the fixed slot set, each slot's health,
// and the tenant placement. Health flips come from two directions —
// synchronously from store health subscriptions (SubscribeHealth →
// Observe) the moment a store transitions, and from the manager when a
// job halts on a backend error — so Acquire never places a tenant on a
// slot already known bad.
type Pool struct {
	mu    sync.Mutex
	order []string
	state map[string]*slotState
	// wait is closed and replaced on every registry mutation; AwaitStatus
	// blocks on it instead of polling.
	wait chan struct{}
	// scorers counts the running auto-rebalancers: while one is, each
	// prober tick also times the healthy slots, the latency it scores.
	scorers int
}

// NewPool builds a registry over the slot set; every slot starts
// healthy.
func NewPool(slots []Slot) (*Pool, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("jobmanager: pool needs at least one slot")
	}
	p := &Pool{state: make(map[string]*slotState, len(slots)), wait: make(chan struct{})}
	for _, s := range slots {
		if s.ID == "" {
			return nil, fmt.Errorf("jobmanager: slot with empty ID")
		}
		if _, dup := p.state[s.ID]; dup {
			return nil, fmt.Errorf("jobmanager: duplicate slot ID %q", s.ID)
		}
		if s.FS == nil {
			s.FS = faultfs.OS
		}
		p.state[s.ID] = &slotState{slot: s, healthy: true, tenants: make(map[string]struct{})}
		p.order = append(p.order, s.ID)
	}
	return p, nil
}

// changed broadcasts a registry mutation to AwaitStatus waiters. Must
// be called with p.mu held.
func (p *Pool) changed() {
	close(p.wait)
	p.wait = make(chan struct{})
}

// AwaitStatus blocks until pred is true of slotID's status (checked
// immediately and after every registry mutation) or the timeout
// expires, and reports which. Event-driven: waiters wake on mutation
// broadcasts rather than polling a snapshot in a sleep loop.
func (p *Pool) AwaitStatus(slotID string, pred func(SlotStatus) bool, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		st, ok := p.state[slotID]
		var snap SlotStatus
		if ok {
			snap = p.statusLocked(slotID, st)
		}
		wait := p.wait
		p.mu.Unlock()
		if ok && pred(snap) {
			return true
		}
		select {
		case <-wait:
		case <-deadline.C:
			return false
		}
	}
}

// Acquire places tenant on the least-loaded healthy slot not in
// exclude (the tenant's own failover history) and returns it. Slow
// (gray) slots are used only when every fast slot is excluded or
// unhealthy; among equally loaded candidates the lower probe-latency
// EWMA wins, so placement drifts toward the fastest media.
func (p *Pool) Acquire(tenant string, exclude map[string]bool) (Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	better := func(a, b *slotState) bool {
		if b == nil {
			return true
		}
		if a.slow != b.slow {
			return !a.slow
		}
		if len(a.tenants) != len(b.tenants) {
			return len(a.tenants) < len(b.tenants)
		}
		return a.probeEWMA < b.probeEWMA
	}
	var best *slotState
	for _, id := range p.order {
		st := p.state[id]
		if !st.healthy || exclude[id] {
			continue
		}
		if better(st, best) {
			best = st
		}
	}
	if best == nil {
		return Slot{}, fmt.Errorf("jobmanager: no healthy slot available for tenant %s (pool %d, excluded %d)",
			tenant, len(p.order), len(exclude))
	}
	best.tenants[tenant] = struct{}{}
	p.changed()
	return best.slot, nil
}

// Release removes tenant from a slot's placement (job finished or moved
// away).
func (p *Pool) Release(tenant, slotID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[slotID]; ok {
		delete(st.tenants, tenant)
		p.changed()
	}
}

// MarkFailed flips a slot unhealthy and counts one failover per tenant
// still placed on it. Idempotent: repeat marks (every tenant of the
// slot reports the same failure) keep the first error.
func (p *Pool) MarkFailed(slotID string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[slotID]
	if !ok {
		return
	}
	if st.healthy {
		st.healthy = false
		st.err = err
	}
	st.probeOK = 0
	p.changed()
}

// MarkHealthy returns a repaired slot to rotation.
func (p *Pool) MarkHealthy(slotID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[slotID]; ok {
		st.healthy = true
		st.err = nil
		st.lastReason = core.ReasonNone
		st.slow = false
		p.changed()
	}
}

// Observe is the health-subscription sink: a store on slotID
// transitioned to h for the given typed reason. Failed retires the
// slot immediately — before the job even halts — so concurrent
// Acquires already steer clear. Degraded does not retire the slot:
// degraded stores heal in place (self-heal, checkpoint retry) and the
// job layer decides when degraded becomes fatal. A ReasonLatency
// degrade, though, is direct evidence of gray media: the slot is
// marked slow so Acquire avoids it and the auto-rebalancer drains it,
// even though the slot itself stays in rotation.
func (p *Pool) Observe(slotID string, h core.Health, reason core.HealthReason, err error) {
	p.mu.Lock()
	if st, ok := p.state[slotID]; ok {
		st.lastReason = reason
		if h != core.Healthy && reason == core.ReasonLatency {
			st.slow = true
		}
		p.changed()
	}
	p.mu.Unlock()
	if h == core.Failed {
		p.MarkFailed(slotID, err)
	}
}

// noteLatency folds one probe round trip into the slot's latency EWMA
// (alpha 1/4 — probes are sparse, so weight new samples heavily).
func (p *Pool) noteLatency(slotID string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[slotID]
	if !ok {
		return
	}
	if st.probeEWMA == 0 {
		st.probeEWMA = d
	} else {
		st.probeEWMA += (d - st.probeEWMA) / 4
	}
	p.changed()
}

// markSlow flips the slot's gray flag (the auto-rebalancer's verdict
// from comparing probe EWMAs across the pool).
func (p *Pool) markSlow(slotID string, slow bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[slotID]; ok && st.slow != slow {
		st.slow = slow
		p.changed()
	}
}

// noteRebalance counts one tenant drained off slotID by the
// auto-rebalancer.
func (p *Pool) noteRebalance(slotID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[slotID]; ok {
		st.rebalances++
		p.changed()
	}
}

// noteFailover counts one completed tenant move off slotID.
func (p *Pool) noteFailover(slotID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[slotID]; ok {
		st.failovers++
		p.changed()
	}
}

// ProberOptions configures the background slot prober.
type ProberOptions struct {
	// Interval is the probe cadence for failed slots. Default 5s.
	Interval time.Duration
	// Confirmations is how many consecutive probes must succeed before
	// a failed slot returns to rotation — one lucky I/O must not route
	// tenants back onto flapping media. Default 3.
	Confirmations int
	// Probe checks one slot's media; nil uses a write/read/remove probe
	// file under the slot directory.
	Probe func(Slot) error
	// ScrubIdle makes each tick also scrub the IDLE healthy slots — the
	// ones with no tenants placed, so nothing is appending while the
	// scrub reads. Corruption fails the slot (and counts in SlotStatus),
	// keeping new tenants off rotten media before a restore trips over
	// it. With ScrubIdle set, healing a failed slot additionally
	// requires a clean scrub: a media probe alone would return a slot to
	// rotation while its data still carries the rot that failed it.
	// The scrub is scrubSlotFiles: every log file frame-verified, every
	// checkpoint directory checked against its CUT.
	ScrubIdle bool
	// Clock paces the prober; nil uses the system clock. Tests inject a
	// fake to step ticks without real sleeps.
	Clock clock.Clock
}

// StartProber watches failed slots and returns them to rotation once
// they answer Confirmations consecutive probes — closing the loop that
// MarkFailed opens: without it a transiently failed slot (remounted
// disk, freed quota) stays out of the pool until an operator calls
// MarkHealthy by hand. While an auto-rebalancer runs on the pool
// (StartAutoRebalance), each tick also probes the healthy slots, timing
// the round trip into the slot's latency EWMA (SlotStatus.ProbeLatency)
// that the rebalancer scores; with none running, healthy media gets no
// probe I/O. The returned stop function halts the prober and waits for
// it to exit.
func (p *Pool) StartProber(opts ProberOptions) (stop func()) {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.Confirmations <= 0 {
		opts.Confirmations = 3
	}
	probe := opts.Probe
	if probe == nil {
		probe = probeSlotMedia
	}
	var scrub func(Slot) error
	if opts.ScrubIdle {
		scrub = scrubSlotFiles
	}
	clk := clock.Or(opts.Clock)
	done := make(chan struct{})
	finished := make(chan struct{})
	// Ticker registration happens before the goroutine starts so tests
	// advancing a fake clock immediately after StartProber cannot race
	// it.
	tick := clk.NewTicker(opts.Interval)
	go func() {
		defer close(finished)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C():
			}
			for _, slot := range p.failedSlots() {
				err := probe(slot)
				if err == nil && scrub != nil {
					// Rot does not heal with the media: a failed slot
					// re-enters rotation only when its data scrubs clean.
					err = scrub(slot)
				}
				p.noteProbe(slot.ID, err, opts.Confirmations)
			}
			if p.scored() {
				for _, slot := range p.healthySlots() {
					start := time.Now()
					if probe(slot) == nil {
						p.noteLatency(slot.ID, time.Since(start))
					}
				}
			}
			if scrub == nil {
				continue
			}
			for _, slot := range p.idleSlots() {
				p.noteScrub(slot.ID, scrub(slot))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// failedSlots snapshots the currently unhealthy slots.
func (p *Pool) failedSlots() []Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Slot
	for _, id := range p.order {
		if st := p.state[id]; !st.healthy {
			out = append(out, st.slot)
		}
	}
	return out
}

// addScorer registers (+1) or unregisters (-1) an auto-rebalancer.
func (p *Pool) addScorer(d int) {
	p.mu.Lock()
	p.scorers += d
	p.mu.Unlock()
}

// scored reports whether an auto-rebalancer is scoring probe latency.
func (p *Pool) scored() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scorers > 0
}

// healthySlots snapshots the currently healthy slots.
func (p *Pool) healthySlots() []Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Slot
	for _, id := range p.order {
		if st := p.state[id]; st.healthy {
			out = append(out, st.slot)
		}
	}
	return out
}

// idleSlots snapshots the healthy slots with no tenants placed — the
// only slots the prober scrubs, so a scrub never races a live appender.
func (p *Pool) idleSlots() []Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Slot
	for _, id := range p.order {
		if st := p.state[id]; st.healthy && len(st.tenants) == 0 {
			out = append(out, st.slot)
		}
	}
	return out
}

// noteScrub records one idle-slot scrub outcome; corruption fails the
// slot.
func (p *Pool) noteScrub(slotID string, err error) {
	p.mu.Lock()
	st, ok := p.state[slotID]
	if ok {
		st.scrubs++
		if err != nil {
			st.scrubCorrupt++
		}
		p.changed()
	}
	p.mu.Unlock()
	if ok && err != nil {
		p.MarkFailed(slotID, fmt.Errorf("jobmanager: slot scrub: %w", err))
	}
}

// noteProbe records one probe outcome; the need'th consecutive success
// heals the slot.
func (p *Pool) noteProbe(slotID string, err error, need int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[slotID]
	if !ok || st.healthy {
		return
	}
	if err != nil {
		st.probeOK = 0
		return
	}
	st.probeOK++
	if st.probeOK >= need {
		st.healthy = true
		st.err = nil
		st.lastReason = core.ReasonNone
		st.slow = false
		st.probeOK = 0
		st.heals++
		p.changed()
	}
}

// probeSlotMedia is the default probe: a full write/sync/read/remove
// round trip of a scratch file under the slot directory, on the slot's
// own filesystem seam — the same I/O surface tenant stores use.
func probeSlotMedia(s Slot) error {
	fsys := s.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.Dir, ".probe")
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("flowkv slot probe\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if _, err := fsys.ReadFile(path); err != nil {
		return err
	}
	return fsys.Remove(path)
}

// scrubSlotFiles is the default idle-slot scrub: it walks the slot
// directory, frame-verifies every ".log" file and verifies every
// checkpoint directory against its CUT. A torn log tail is a crash
// artifact, not corruption, and so is a checkpoint's staging directory
// (core.IsCheckpointStaging), whose CUT a crash mid-cut may have left
// half written: both are skipped. Quarantined checkpoint directories were
// already detected and handled upstream, so they are skipped rather than
// re-reported forever.
func scrubSlotFiles(s Slot) error {
	fsys := s.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	return scrubTree(fsys, s.Dir)
}

func scrubTree(fsys faultfs.FS, dir string) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	// A directory holding a CUT is a checkpoint: verify it as a unit (the
	// CUT's CRCs cover every file, log or not).
	for _, e := range ents {
		if !e.IsDir() && e.Name() == ckpt.CutName {
			_, _, verr := core.VerifyCheckpointDir(fsys, dir)
			return verr
		}
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() {
			if core.IsCheckpointStaging(e.Name()) || core.IsQuarantined(fsys, path) {
				continue
			}
			if err := scrubTree(fsys, path); err != nil {
				return err
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		if err := scrubLogFile(fsys, path); err != nil {
			return err
		}
	}
	return nil
}

// scrubLogFile frame-scans one log file end to end.
func scrubLogFile(fsys faultfs.FS, path string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := binio.NewRecordScanner(f, 0)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scrub %s: %w", path, err)
	}
	return nil
}

// Slots returns the slot set in registration order.
func (p *Pool) Slots() []Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Slot, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.state[id].slot)
	}
	return out
}

// Status snapshots the registry in registration order.
func (p *Pool) Status() []SlotStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SlotStatus, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.statusLocked(id, p.state[id]))
	}
	return out
}

// statusLocked builds one slot's snapshot. Must be called with p.mu
// held.
func (p *Pool) statusLocked(id string, st *slotState) SlotStatus {
	s := SlotStatus{ID: id, Healthy: st.healthy, Failovers: st.failovers, Heals: st.heals,
		Scrubs: st.scrubs, ScrubCorrupt: st.scrubCorrupt,
		Reason: st.lastReason, Slow: st.slow, ProbeLatency: st.probeEWMA, Rebalances: st.rebalances}
	if st.err != nil {
		s.Err = st.err.Error()
	}
	for t := range st.tenants {
		s.Tenants = append(s.Tenants, t)
	}
	sort.Strings(s.Tenants)
	return s
}
