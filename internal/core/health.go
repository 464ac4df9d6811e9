package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/logfile"
)

// Health is the store's failure-handling state. The machine has three
// states and two legal transition edges out of Healthy:
//
//	Healthy ──write-path I/O error──▶ Degraded ──Recover() fails──▶ Failed
//	   ▲                                  │
//	   └────────Recover() succeeds────────┘
//
// Degraded is read-only: acknowledged state stays readable (poisoned logs
// serve stitched reads from the durable prefix plus the retained
// in-memory tail) and in-progress GetWindow drains keep draining, but new
// writes are rejected so no acknowledgement can be issued that the store
// might not honor. Failed means recovery itself could not restore the
// durable-offset invariant; every operation is rejected.
type Health int32

const (
	// Healthy: all operations available.
	Healthy Health = iota
	// Degraded: a write-path I/O failure occurred; reads serve, writes
	// are rejected until Recover succeeds.
	Degraded
	// Failed: recovery failed; the store rejects all operations.
	Failed
)

// String returns the health-state name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// MarshalJSON renders the health-state name, so JSON reports read
// "healthy"/"degraded"/"failed" rather than opaque integers.
func (h Health) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// HealthReason classifies what drove the store out of Healthy, so
// subscribers (pool registries, self-healers) can distinguish a disk
// that errored from one that hung or merely slowed down — three faults
// with the same state machine but different remediation.
type HealthReason int32

const (
	// ReasonNone: the store is Healthy (or was never unhealthy).
	ReasonNone HealthReason = iota
	// ReasonError: an explicit write-path I/O error.
	ReasonError
	// ReasonStall: an operation ran past Options.OpDeadline and its
	// descriptor was abandoned (logfile.ErrStalled).
	ReasonStall
	// ReasonLatency: no operation failed, but the per-op latency EWMA
	// crossed Options.SlowOpThreshold — the pure-slow gray failure.
	// Nothing is poisoned; Recover returns the store to Healthy.
	ReasonLatency
)

// String returns the reason name.
func (r HealthReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonError:
		return "error"
	case ReasonStall:
		return "stall"
	case ReasonLatency:
		return "latency"
	default:
		return fmt.Sprintf("reason(%d)", int32(r))
	}
}

// MarshalJSON renders the reason name.
func (r HealthReason) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON parses the reason name (registry snapshots round-trip
// through JSON). Unknown names decode as ReasonNone rather than
// failing a whole snapshot parse.
func (r *HealthReason) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*r = ReasonError
	case `"stall"`:
		*r = ReasonStall
	case `"latency"`:
		*r = ReasonLatency
	default:
		*r = ReasonNone
	}
	return nil
}

// ErrDegraded rejects writes while the store is in the Degraded state.
// The wrapped message carries the original failure; call Recover to
// attempt the transition back to Healthy.
var ErrDegraded = errors.New("flowkv: store degraded, writes rejected until Recover")

// ErrFailed rejects every operation after recovery has failed.
var ErrFailed = errors.New("flowkv: store failed, recovery unsuccessful")

// Health returns the store's current failure-handling state.
func (s *Store) Health() Health { return Health(s.health.Load()) }

// HealthReason returns what drove the store out of Healthy (ReasonNone
// while Healthy).
func (s *Store) HealthReason() HealthReason { return HealthReason(s.healthReason.Load()) }

// Err returns the first error that moved the store out of Healthy, or
// nil. The error is retained across Degraded→Failed; Recover clears it.
func (s *Store) Err() error {
	s.herrMu.Lock()
	defer s.herrMu.Unlock()
	return s.herr
}

func (s *Store) setHealth(h Health) {
	s.health.Store(int32(h))
	s.healthGauge.Set(int64(h))
	s.notifyHealth(h)
}

// NotifyHealth subscribes fn to health transitions: it is invoked once
// per state change (Healthy→Degraded, Degraded→Failed, →Healthy on
// recovery) with the new state, the typed reason for the departure from
// Healthy (ReasonNone on return to Healthy), and the error that caused
// it (nil on return to Healthy; for a pure-latency degrade, where no
// operation failed, a synthesized description of the slow medium).
// Callbacks run synchronously on the
// transitioning goroutine — a pool registry flipping a flag, not slow
// work — and must not call back into the store.
func (s *Store) NotifyHealth(fn func(Health, HealthReason, error)) {
	s.subsMu.Lock()
	s.healthSubs = append(s.healthSubs, fn)
	s.subsMu.Unlock()
}

// notifyHealth fans a transition out to the subscribers, outside every
// store lock (the health word is already updated). Repeats of the
// already-notified state are suppressed — a self-healer calling Recover
// in a loop re-fails into Failed on every attempt, and subscribers are
// owed one transition, not one per attempt. The next different state
// re-arms delivery.
func (s *Store) notifyHealth(h Health) {
	if s.lastNotified.Swap(int32(h)) == int32(h) {
		return
	}
	s.subsMu.Lock()
	subs := s.healthSubs
	s.subsMu.Unlock()
	if len(subs) == 0 {
		return
	}
	err := s.Err()
	reason := s.HealthReason()
	for _, fn := range subs {
		fn(h, reason, err)
	}
}

// degrade records err and moves Healthy→Degraded. Failed is sticky; a
// later write error never moves the store back to merely Degraded. The
// reason is derived from the error: a deadline stall (the descriptor
// hung and was abandoned) is distinguished from an explicit I/O error.
func (s *Store) degrade(err error) {
	reason := ReasonError
	if errors.Is(err, logfile.ErrStalled) {
		// The stall counter is maintained by the latency monitor's
		// ObserveStall (which also sees stalls whose errors are
		// swallowed); only classify here.
		reason = ReasonStall
	}
	s.writeErrs.Inc()
	s.degradeReason(err, reason)
}

// degradeLatency moves Healthy→Degraded on the latency signal alone: no
// operation failed, nothing is poisoned, and Recover (with nothing to
// reopen) flips straight back to Healthy — which is exactly what lets a
// health-aware manager route load away and retry later. The synthesized
// error carries the numbers for operators.
func (s *Store) degradeLatency(ewma, threshold time.Duration) {
	s.degradeReason(fmt.Errorf("flowkv: slow media: per-op latency EWMA %v exceeds threshold %v", ewma, threshold), ReasonLatency)
}

// degradeReason is the shared Healthy→Degraded edge: latch the first
// cause (error and reason travel together), then CAS the state.
func (s *Store) degradeReason(err error, reason HealthReason) {
	s.herrMu.Lock()
	if s.herr == nil {
		s.herr = err
		s.healthReason.Store(int32(reason))
	}
	s.herrMu.Unlock()
	if s.health.CompareAndSwap(int32(Healthy), int32(Degraded)) {
		s.healthGauge.Set(int64(Degraded))
		s.notifyHealth(Degraded)
	}
}

// guardWrite rejects the call unless the store is Healthy.
func (s *Store) guardWrite() error {
	switch s.Health() {
	case Healthy:
		return nil
	case Degraded:
		return fmt.Errorf("%w: %v", ErrDegraded, s.Err())
	default:
		return fmt.Errorf("%w: %v", ErrFailed, s.Err())
	}
}

// guardRead rejects the call only when the store is Failed; Degraded
// stores keep serving reads.
func (s *Store) guardRead() error {
	if s.Health() == Failed {
		return fmt.Errorf("%w: %v", ErrFailed, s.Err())
	}
	return nil
}

// writeDone inspects a write-path result and applies the health
// transition: any real I/O failure degrades the store. Usage errors
// (wrong pattern, already closed) are the caller's bug, not a disk
// fault, and do not change state.
func (s *Store) writeDone(err error) error {
	if err != nil && !usageError(err) {
		s.degrade(err)
	}
	return err
}

func usageError(err error) bool {
	return errors.Is(err, ErrWrongPattern) ||
		errors.Is(err, aar.ErrClosed) ||
		errors.Is(err, aur.ErrClosed) ||
		errors.Is(err, rmw.ErrClosed)
}

// retryableRead reports whether a read error is worth retrying: usage
// errors are deterministic, and a poisoned log stays poisoned until
// Recover reopens it, so neither can succeed on a second attempt.
func retryableRead(err error) bool {
	return !usageError(err) && !errors.Is(err, logfile.ErrPoisoned)
}

// maxReadRetries bounds the retry attempts for a transient read I/O error
// before it surfaces to the caller.
const maxReadRetries = 3

// readRetry runs f against instance inst, retrying transient read
// failures up to maxReadRetries times with full-jitter exponential
// backoff: the attempt sleeps a uniform random duration in (0, cap],
// where cap starts at the instance's current starting backoff and
// doubles per attempt. Disk reads hitting a transient EIO (a
// recoverable medium or transport hiccup) succeed on retry without
// surfacing to the caller or changing the health state. The jitter
// matters when several workers share one backend: a deterministic
// schedule would march every worker back onto the faulted device in
// lockstep, re-colliding on each attempt, while full jitter spreads the
// retry instants across the whole backoff window.
//
// An instance that needed backoff to answer raises its own starting cap
// (doubling, bounded), so successive reads against still-flaky media
// begin where the last episode ended instead of re-probing from the
// configured minimum. Recover resets the caps.
func (s *Store) readRetry(inst int, f func() error) error {
	err := f()
	if err == nil {
		return nil
	}
	cap := s.retryCapOf(inst)
	start := cap
	retried := false
	for attempt := 0; attempt < maxReadRetries; attempt++ {
		if !retryableRead(err) {
			break
		}
		retried = true
		s.readRetries.Inc()
		time.Sleep(fullJitter(cap))
		cap *= 2
		if err = f(); err == nil {
			s.escalateRetryCap(inst, start*2)
			return nil
		}
	}
	if retried {
		s.escalateRetryCap(inst, start*2)
	}
	s.readErrs.Inc()
	return err
}

// retryCapOf returns instance inst's current starting backoff: the
// configured minimum, or the escalated value a past retry episode left.
func (s *Store) retryCapOf(inst int) time.Duration {
	cap := s.opts.ReadRetryBackoff
	if inst >= 0 && inst < len(s.retryCaps) {
		if esc := time.Duration(s.retryCaps[inst].Load()); esc > cap {
			cap = esc
		}
	}
	return cap
}

// escalateRetryCap raises instance inst's starting backoff to cap,
// bounded at 64x the configured minimum. Monotonic under concurrency:
// a racing larger escalation wins.
func (s *Store) escalateRetryCap(inst int, cap time.Duration) {
	if inst < 0 || inst >= len(s.retryCaps) {
		return
	}
	if max := s.opts.ReadRetryBackoff << 6; cap > max {
		cap = max
	}
	for {
		cur := s.retryCaps[inst].Load()
		if int64(cap) <= cur || s.retryCaps[inst].CompareAndSwap(cur, int64(cap)) {
			return
		}
	}
}

// resetRetryCaps drops every instance's starting backoff to the
// configured minimum (the Recover path).
func (s *Store) resetRetryCaps() {
	for i := range s.retryCaps {
		s.retryCaps[i].Store(0)
	}
}

// fullJitter draws a uniform sleep in (0, cap] — the "full jitter"
// backoff policy. Never zero, so a retry always yields the scheduler.
func fullJitter(cap time.Duration) time.Duration {
	if cap <= 1 {
		return 1
	}
	return time.Duration(rand.Int63n(int64(cap))) + 1
}

// poisoned probes every instance and returns the first log-poisoning
// error, or nil when all live logs are healthy.
func (s *Store) poisoned() error {
	for _, inst := range s.insts {
		if err := inst.Poisoned(); err != nil {
			return err
		}
	}
	return nil
}

// Recover attempts to bring a Degraded (or Failed) store back to
// Healthy. Every poisoned log is reopened at its durable offset — the
// fsyncgate-safe continuation: the suspect file descriptor and OS page
// cache are discarded, the file is truncated to the last fsync-verified
// byte, and the retained in-memory tail of acknowledged-but-unsynced
// records is rewritten through the fresh descriptor. If any instance
// cannot re-establish that invariant (e.g. its unsynced tail exceeded
// the retention bound), the store moves to Failed and the error is
// returned; a later Recover may retry.
func (s *Store) Recover() error {
	if s.Health() == Healthy {
		return nil
	}
	err := s.eachInstance(func(i int) error { return s.insts[i].Recover() })
	if err != nil {
		s.setHealth(Failed)
		return fmt.Errorf("flowkv: recover: %w", err)
	}
	s.recoveries.Inc()
	s.herrMu.Lock()
	s.herr = nil
	s.healthReason.Store(int32(ReasonNone))
	s.herrMu.Unlock()
	// A fresh Healthy episode starts with a fresh latency baseline; the
	// EWMA of the degraded episode must not instantly re-degrade a
	// recovered (or relocated) store.
	s.resetLatencyBaseline()
	// The Degraded episode's pessimism dies with it: recovered media
	// answers reads at the configured backoff again.
	s.resetRetryCaps()
	s.setHealth(Healthy)
	return nil
}
