package jobmanager

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"flowkv/internal/clock"
	"flowkv/internal/core"
)

// TestPoolAcquireAvoidsSlowSlots: a slot flagged slow by a store-level
// latency degrade is the placement of last resort — Acquire prefers any
// fast healthy slot even when the slow one is emptier, and falls back
// to the slow slot only when nothing else remains.
func TestPoolAcquireAvoidsSlowSlots(t *testing.T) {
	p, err := NewPool([]Slot{{ID: "slow", Dir: t.TempDir()}, {ID: "fast", Dir: t.TempDir()}})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	p.Observe("slow", core.Degraded, core.ReasonLatency, errors.New("slow media"))

	// Load the fast slot heavier than the slow one; Acquire must still
	// avoid the slow slot.
	if s, err := p.Acquire("t1", nil); err != nil || s.ID != "fast" {
		t.Fatalf("t1 placed on %q (%v), want fast", s.ID, err)
	}
	if s, err := p.Acquire("t2", nil); err != nil || s.ID != "fast" {
		t.Fatalf("t2 placed on %q (%v), want fast despite load", s.ID, err)
	}
	// Last resort: with the fast slot excluded, the slow slot still
	// serves — gray media works, it is just slow.
	if s, err := p.Acquire("t3", map[string]bool{"fast": true}); err != nil || s.ID != "slow" {
		t.Fatalf("t3 placed on %q (%v), want slow as last resort", s.ID, err)
	}
	for _, st := range p.Status() {
		if st.ID == "slow" {
			if !st.Slow || st.Reason != core.ReasonLatency {
				t.Fatalf("slow slot status = %+v, want Slow with ReasonLatency", st)
			}
			if !st.Healthy {
				t.Fatal("latency degrade retired the slot; slow slots must stay in rotation")
			}
		}
	}
}

// TestPoolAcquirePrefersLowerProbeLatency: among equally loaded fast
// slots, placement drifts toward the lower probe-latency EWMA.
func TestPoolAcquirePrefersLowerProbeLatency(t *testing.T) {
	p, err := NewPool([]Slot{{ID: "a", Dir: t.TempDir()}, {ID: "b", Dir: t.TempDir()}})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	p.noteLatency("a", 10*time.Millisecond)
	p.noteLatency("b", 1*time.Millisecond)
	if s, err := p.Acquire("t1", nil); err != nil || s.ID != "b" {
		t.Fatalf("t1 placed on %q (%v), want b (lower probe EWMA)", s.ID, err)
	}
}

// TestPoolAwaitStatus: the event-driven wait wakes on a registry
// mutation rather than polling, and reports a timeout when the
// predicate never holds.
func TestPoolAwaitStatus(t *testing.T) {
	p, err := NewPool([]Slot{{ID: "a", Dir: t.TempDir()}})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	done := make(chan bool, 1)
	go func() {
		done <- p.AwaitStatus("a", func(s SlotStatus) bool { return !s.Healthy }, 10*time.Second)
	}()
	p.MarkFailed("a", errors.New("boom"))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("AwaitStatus timed out despite a matching mutation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitStatus never woke on the mutation")
	}
	if p.AwaitStatus("a", func(s SlotStatus) bool { return s.Heals > 0 }, 10*time.Millisecond) {
		t.Fatal("AwaitStatus reported success for a predicate that never held")
	}
	if p.AwaitStatus("nope", func(SlotStatus) bool { return true }, 10*time.Millisecond) {
		t.Fatal("AwaitStatus reported success for an unknown slot")
	}
}

// TestRebalanceTickScoring drives the scoring half of the rebalancer on
// a bare pool: a slot probing far over the pool median is marked slow;
// once its probes come back down (and no store still reports a latency
// degrade), the mark clears.
func TestRebalanceTickScoring(t *testing.T) {
	m := newBatteryManager(t, 3, nil, 0)
	p := m.Pool()
	p.noteLatency("slot0", 200*time.Millisecond)
	p.noteLatency("slot1", 1*time.Millisecond)
	p.noteLatency("slot2", 2*time.Millisecond)

	opts := AutoRebalanceOptions{SlowFactor: 4, MinLatency: 20 * time.Millisecond, MaxMovesPerTick: 1}
	if moves := m.rebalanceTick(opts); moves != 0 {
		t.Fatalf("tick moved %d tenants with none submitted", moves)
	}
	status := func(id string) SlotStatus {
		for _, st := range p.Status() {
			if st.ID == id {
				return st
			}
		}
		t.Fatalf("no slot %s", id)
		return SlotStatus{}
	}
	if !status("slot0").Slow {
		t.Fatal("slot probing 100x over the median not marked slow")
	}
	if status("slot1").Slow || status("slot2").Slow {
		t.Fatal("fast slots marked slow")
	}

	// The episode ends: fresh probes pull the EWMA back under the cut.
	for i := 0; i < 16; i++ {
		p.noteLatency("slot0", time.Millisecond)
	}
	m.rebalanceTick(opts)
	if st := status("slot0"); st.Slow {
		t.Fatalf("slow mark did not clear after probes recovered: %+v", st)
	}
}

// TestAutoRebalanceDrainsSlowSlot is the latency-driven rebalancing
// acceptance case: a tenant runs on a slot whose probes then degrade
// 100x (the disk still works — a pure gray failure). One rebalancer
// tick must mark the slot slow and move the tenant to the fast slot
// through the planned stop-and-resume path, and the tenant must finish
// with a ledger byte-identical to the unmanaged golden run.
func TestAutoRebalanceDrainsSlowSlot(t *testing.T) {
	tuples := batteryTuples(600)
	const every = 100
	golden := goldenLedger(t, tuples, every)

	m := newBatteryManager(t, 2, nil, 0)
	src := newGatedSource(tuples, 350)
	if err := m.Submit(Tenant{
		ID:              "gray",
		Source:          src,
		Pipeline:        batteryPipeline(),
		MakeBackend:     batteryBackend("gray"),
		CheckpointEvery: every,
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-src.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("tenant never reached the gate")
	}
	stats, _ := m.Snapshot()
	victim := stats[0].Slot
	if victim == "" {
		t.Fatal("tenant has no slot at the gate")
	}
	other := "slot0"
	if victim == "slot0" {
		other = "slot1"
	}

	// The tenant's slot goes gray: probes 100x the other slot's.
	m.Pool().noteLatency(victim, 100*time.Millisecond)
	m.Pool().noteLatency(other, 1*time.Millisecond)

	// Drive the rebalancer with a fake clock: one tick, one move.
	clk := clock.NewFake()
	stop := m.StartAutoRebalance(AutoRebalanceOptions{
		Interval:   time.Second,
		SlowFactor: 4,
		MinLatency: 20 * time.Millisecond,
		Clock:      clk,
	})
	defer stop()
	clk.Advance(time.Second)
	if !m.Pool().AwaitStatus(victim, func(s SlotStatus) bool { return s.Slow && s.Rebalances == 1 }, 10*time.Second) {
		t.Fatalf("rebalancer never drained the slow slot: %+v", m.Pool().Status())
	}
	close(src.release)

	results := m.Wait()
	res := results["gray"]
	if res.Err != nil {
		t.Fatalf("tenant failed: %v", res.Err)
	}
	if !res.Result.Final {
		t.Fatal("tenant did not reach final state")
	}
	if res.Stats.Rebalances != 1 {
		t.Fatalf("tenant rebalances = %d, want 1", res.Stats.Rebalances)
	}
	if res.Stats.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 — a gray slot is not a failed slot", res.Stats.Failovers)
	}
	if res.Stats.Slot != other {
		t.Fatalf("tenant finished on %q, want the fast slot %q", res.Stats.Slot, other)
	}
	if got := tenantLedger(t, m, "gray"); !bytes.Equal(got, golden) {
		t.Fatalf("ledger diverges from golden: %d bytes vs %d", len(got), len(golden))
	}
	for _, s := range m.Pool().Status() {
		if !s.Healthy {
			t.Fatalf("slot %s unhealthy after a latency-driven rebalance", s.ID)
		}
	}
}

// TestAutoRebalanceTimesHealthySlotsWhileRunning closes the loop from a
// slow probe to a drained slot with no option naming the latency probe:
// a running rebalancer makes the prober time the healthy slots, so one
// prober tick over a slot whose probe takes 50ms feeds the score, and
// one rebalancer tick marks the slot slow and moves its tenant off.
func TestAutoRebalanceTimesHealthySlotsWhileRunning(t *testing.T) {
	m := newBatteryManager(t, 2, nil, 0)
	src := newGatedSource(batteryTuples(600), 350)
	if err := m.Submit(Tenant{
		ID:              "gray",
		Source:          src,
		Pipeline:        batteryPipeline(),
		MakeBackend:     batteryBackend("gray"),
		CheckpointEvery: 100,
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-src.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("tenant never reached the gate")
	}
	stats, _ := m.Snapshot()
	victim := stats[0].Slot
	if victim == "" {
		t.Fatal("tenant has no slot at the gate")
	}

	rebClk, probeClk := clock.NewFake(), clock.NewFake()
	stopReb := m.StartAutoRebalance(AutoRebalanceOptions{Interval: time.Second, Clock: rebClk})
	defer stopReb()
	stopProbe := m.Pool().StartProber(ProberOptions{
		Interval: time.Second,
		Clock:    probeClk,
		Probe: func(s Slot) error {
			if s.ID == victim {
				time.Sleep(50 * time.Millisecond)
			}
			return nil
		},
	})
	defer stopProbe()

	probeClk.Advance(time.Second)
	for _, id := range []string{"slot0", "slot1"} {
		if !m.Pool().AwaitStatus(id, func(s SlotStatus) bool { return s.ProbeLatency > 0 }, 10*time.Second) {
			t.Fatalf("prober never timed healthy slot %s while a rebalancer ran: %+v", id, m.Pool().Status())
		}
	}
	rebClk.Advance(time.Second)
	if !m.Pool().AwaitStatus(victim, func(s SlotStatus) bool { return s.Slow && s.Rebalances == 1 }, 10*time.Second) {
		t.Fatalf("rebalancer never drained the slow slot: %+v", m.Pool().Status())
	}
	close(src.release)

	res := m.Wait()["gray"]
	if res.Err != nil {
		t.Fatalf("tenant failed: %v", res.Err)
	}
	if res.Stats.Rebalances != 1 || res.Stats.Slot == victim {
		t.Fatalf("tenant rebalances = %d on %q, want 1 move off %q", res.Stats.Rebalances, res.Stats.Slot, victim)
	}
}
