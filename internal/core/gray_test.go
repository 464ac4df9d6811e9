package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
)

// openGrayStore opens a battery store with the gray-failure options
// armed: an op deadline (stall detection) and a slow-op threshold
// (latency degrade).
func openGrayStore(t *testing.T, p Pattern, inj *faultfs.Injector, deadline, slowAt time.Duration) *Store {
	t.Helper()
	agg, wk, opts := crashConfig(p)
	opts.Instances = 2
	opts.WriteBufferBytes = 2 << 20
	opts.ReadRetryBackoff = 50 * time.Microsecond
	opts.FS = inj
	opts.Dir = filepath.Join(t.TempDir(), "store")
	opts.OpDeadline = deadline
	opts.SlowOpThreshold = slowAt
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Destroy() })
	return s
}

// TestPureSlowDiskDegradesOnLatency is the defining gray-failure case:
// the disk answers every call correctly but slowly, so no error ever
// reaches the health machine. The latency EWMA alone must drive the
// store to Degraded with ReasonLatency — zero write errors, zero
// stalls, nothing poisoned — and Recover (with nothing to repair) must
// flip straight back to Healthy with a fresh latency baseline.
func TestPureSlowDiskDegradesOnLatency(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openGrayStore(t, PatternAUR, inj, 0, 500*time.Microsecond)

	type event struct {
		h      Health
		reason HealthReason
		err    error
	}
	var events []event
	s.NotifyHealth(func(h Health, reason HealthReason, err error) {
		events = append(events, event{h, reason, err})
	})

	// Every mutating op now takes ≥1ms — far over the 500µs threshold —
	// but succeeds. The rule injects no error.
	inj.SetRule(faultfs.Rule{Class: faultfs.ClassPersistent, Delay: time.Millisecond})

	degraded := false
	for round := 0; round < 40 && !degraded; round++ {
		for k := 0; k < 3; k++ {
			if err := writeBattery(s, PatternAUR, 0, fmt.Sprintf("key-%d", k), round*10+k); err != nil {
				if s.Health() == Degraded {
					degraded = true
					break
				}
				t.Fatalf("round %d write: %v", round, err)
			}
		}
		if err := s.Sync(); err != nil {
			if s.Health() == Degraded {
				degraded = true
				break
			}
			t.Fatalf("round %d sync: %v", round, err)
		}
		degraded = s.Health() == Degraded
	}
	if !degraded {
		t.Fatal("pure-slow disk never degraded the store via the latency signal")
	}
	if got := s.HealthReason(); got != ReasonLatency {
		t.Fatalf("HealthReason = %v, want ReasonLatency", got)
	}
	st := s.Stats()
	if st.WriteErrors != 0 {
		t.Fatalf("WriteErrors = %d, want 0 — no operation failed", st.WriteErrors)
	}
	if st.Stalls != 0 {
		t.Fatalf("Stalls = %d, want 0 — nothing hung", st.Stalls)
	}
	if st.LatencyEWMA < 500*time.Microsecond {
		t.Fatalf("LatencyEWMA = %v, want ≥ threshold", st.LatencyEWMA)
	}
	if len(events) != 1 || events[0].h != Degraded || events[0].reason != ReasonLatency {
		t.Fatalf("events = %+v, want one Degraded/ReasonLatency", events)
	}
	if events[0].err == nil || !strings.Contains(events[0].err.Error(), "slow media") {
		t.Fatalf("latency degrade error = %v, want synthesized slow-media description", events[0].err)
	}

	// Nothing is poisoned: the degrade was advisory. Recover must
	// succeed even while the disk is still slow, and reset the baseline
	// so the fresh Healthy episode is not instantly re-condemned by the
	// old EWMA.
	if err := s.Recover(); err != nil {
		t.Fatalf("recover from latency degrade: %v", err)
	}
	if got := s.Health(); got != Healthy {
		t.Fatalf("health after recover = %v, want Healthy", got)
	}
	if got := s.HealthReason(); got != ReasonNone {
		t.Fatalf("reason after recover = %v, want ReasonNone", got)
	}
	if got := s.Stats().LatencyEWMA; got != 0 {
		t.Fatalf("LatencyEWMA after recover = %v, want 0 (baseline reset)", got)
	}
	inj.Reset()
	if err := writeBattery(s, PatternAUR, 0, "post-recover", 9999); err != nil {
		t.Fatalf("write after recover: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after recover: %v", err)
	}
}

// TestHungSyncDegradesWithStallReason drives the deadline sentinel end
// to end through the composite store: a sync that hangs indefinitely is
// abandoned at Options.OpDeadline, the store degrades with ReasonStall,
// and the stall is counted in Stats. After the injector releases the
// hung op and the fault clears, Recover restores Healthy and every
// acked record is still readable.
func TestHungSyncDegradesWithStallReason(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openGrayStore(t, PatternAUR, inj, 50*time.Millisecond, 0)

	for k := 0; k < 6; k++ {
		if err := writeBattery(s, PatternAUR, 0, fmt.Sprintf("key-%d", k), 100+k); err != nil {
			t.Fatalf("baseline write: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}

	// Something to make durable: a sync of logs that are already durable
	// issues no fsync.
	if err := writeBattery(s, PatternAUR, 0, "key-unsynced", 150); err != nil {
		t.Fatalf("write before the hung sync: %v", err)
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Class: faultfs.ClassOnce, Hang: true})
	err := s.Sync()
	if err == nil {
		t.Fatal("sync with hung fsync succeeded")
	}
	if !errors.Is(err, logfile.ErrStalled) {
		t.Fatalf("sync error = %v, want ErrStalled", err)
	}
	if got := s.Health(); got != Degraded {
		t.Fatalf("health after stall = %v, want Degraded", got)
	}
	if got := s.HealthReason(); got != ReasonStall {
		t.Fatalf("HealthReason = %v, want ReasonStall", got)
	}
	if got := s.Stats().Stalls; got != 1 {
		t.Fatalf("Stalls = %d, want 1", got)
	}

	// Release the parked fsync (the "disk" finally answers) and clear
	// the fault; recovery reopens at the durable offset and replays the
	// retained tail.
	inj.Release()
	inj.Reset()
	if err := s.Recover(); err != nil {
		t.Fatalf("recover after stall: %v", err)
	}
	if got := s.Health(); got != Healthy {
		t.Fatalf("health after recover = %v, want Healthy", got)
	}
	for k := 0; k < 6; k++ {
		if err := writeBattery(s, PatternAUR, 0, fmt.Sprintf("key-%d", k), 200+k); err != nil {
			t.Fatalf("post-recover write: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("post-recover sync: %v", err)
	}
}
