// Package limit implements the admission-control strategies the job
// manager applies at its two choke points: source ingest (events/sec per
// tenant) and store write bandwidth (bytes/sec per tenant). There are
// two strategies, token bucket and GCRA; tenant quotas name one the way
// backends name a Kind, and limiters compose into multi-tier quotas (e.g. a burst-tight per-second tier under a
// sustained per-minute tier) where admission requires every tier to
// agree.
//
// All limiters share one contract: Reserve(now, n, maxWait) either
// charges n units and returns the delay the caller must serve before
// proceeding (backpressure), or refuses without charging anything
// (shed). Time is passed in explicitly, which keeps tests deterministic
// and lets a caller amortize clock reads across choke points.
package limit

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Limiter is one admission-control strategy instance. Implementations
// are safe for concurrent use.
type Limiter interface {
	// Name identifies the strategy (its New name) in stats and reports.
	Name() string
	// Reserve requests admission of n units at time now. When ok, the n
	// units are charged and the caller must wait `wait` (possibly zero)
	// before proceeding — the backpressure path. When !ok, nothing was
	// charged: admitting n units would require delaying beyond maxWait
	// (or n exceeds what the limiter can ever admit at once) — the shed
	// path. maxWait < 0 means the caller will wait however long it
	// takes; only an n larger than the burst capacity is ever refused.
	Reserve(now time.Time, n float64, maxWait time.Duration) (wait time.Duration, ok bool)
}

// Canceler is implemented by limiters that can return a charge — used
// by MultiTier to un-charge admitted tiers when a later tier refuses,
// so a shed request consumes no quota anywhere.
type Canceler interface {
	Cancel(now time.Time, n float64)
}

// Config parameterizes one limiter instance.
type Config struct {
	// Rate is the sustained admission rate in units per second.
	Rate float64
	// Burst is the instantaneous capacity in units: how far admission
	// may run ahead of the sustained rate. Defaults to max(Rate, 1).
	Burst float64
}

func (c Config) fill() (Config, error) {
	if c.Rate <= 0 || math.IsInf(c.Rate, 0) || math.IsNaN(c.Rate) {
		return c, fmt.Errorf("limit: rate must be positive and finite, got %v", c.Rate)
	}
	if c.Burst < 0 || math.IsInf(c.Burst, 0) || math.IsNaN(c.Burst) {
		return c, fmt.Errorf("limit: burst must be non-negative and finite, got %v", c.Burst)
	}
	if c.Burst == 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c, nil
}

// New constructs a limiter by strategy name: "token_bucket" or "gcra".
func New(name string, cfg Config) (Limiter, error) {
	switch name {
	case "token_bucket":
		return NewTokenBucket(cfg)
	case "gcra":
		return NewGCRA(cfg)
	}
	return nil, fmt.Errorf("limit: unknown strategy %q (have token_bucket, gcra)", name)
}

// TokenBucket is the classic leaky-bucket-as-meter: tokens refill at
// Rate per second up to Burst, each admitted unit spends one token, and
// a reservation may drive the balance negative — the debt divided by
// the rate is exactly the wait the caller is told to serve, so a
// saturated bucket turns into smooth backpressure rather than a hard
// edge.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a full bucket.
func NewTokenBucket(cfg Config) (*TokenBucket, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &TokenBucket{rate: c.Rate, burst: c.Burst, tokens: c.Burst}, nil
}

// Name implements Limiter.
func (tb *TokenBucket) Name() string { return "token_bucket" }

func (tb *TokenBucket) refillLocked(now time.Time) {
	if tb.last.IsZero() {
		tb.last = now
		return
	}
	if dt := now.Sub(tb.last); dt > 0 {
		tb.tokens += dt.Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// Reserve implements Limiter.
func (tb *TokenBucket) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	if n > tb.burst {
		// Larger than the bucket: no amount of waiting admits it whole.
		return 0, false
	}
	after := tb.tokens - n
	if after >= 0 {
		tb.tokens = after
		return 0, true
	}
	wait := time.Duration(-after / tb.rate * float64(time.Second))
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	tb.tokens = after
	return wait, true
}

// Cancel implements Canceler: returns n unspent tokens.
func (tb *TokenBucket) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	tb.tokens += n
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// Tokens reports the current balance at time now (tests, stats).
func (tb *TokenBucket) Tokens(now time.Time) float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	return tb.tokens
}

// GCRA is the generic cell rate algorithm (virtual scheduling form):
// instead of a token balance it tracks one timestamp, the theoretical
// arrival time (TAT) of the next conforming unit. A request of n units
// conforms if now >= TAT - τ, where τ = Burst/Rate is the tolerance;
// admission advances TAT by n·T with T = 1/Rate. The wait returned for
// an early-but-tolerable request is TAT - τ - now. GCRA meters exactly
// like a token bucket at steady state but needs O(1) state with no
// refill arithmetic, and its TAT subtraction makes Cancel exact.
type GCRA struct {
	mu  sync.Mutex
	t   time.Duration // emission interval per unit: 1/rate
	tau time.Duration // tolerance: burst * t
	tat time.Time     // theoretical arrival time of the next unit
}

// NewGCRA builds a GCRA limiter.
func NewGCRA(cfg Config) (*GCRA, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	t := time.Duration(float64(time.Second) / c.Rate)
	if t <= 0 {
		t = 1
	}
	return &GCRA{t: t, tau: time.Duration(c.Burst * float64(t))}, nil
}

// Name implements Limiter.
func (g *GCRA) Name() string { return "gcra" }

// Reserve implements Limiter.
func (g *GCRA) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	inc := time.Duration(n * float64(g.t))
	if inc > g.tau {
		// n exceeds the burst tolerance: never admissible at once.
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	tat := g.tat
	if tat.Before(now) {
		tat = now
	}
	newTAT := tat.Add(inc)
	wait := newTAT.Sub(now) - g.tau
	if wait < 0 {
		wait = 0
	}
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	g.tat = newTAT
	return wait, true
}

// Cancel implements Canceler: rolls TAT back by n emission intervals.
func (g *GCRA) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	inc := time.Duration(n * float64(g.t))
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tat = g.tat.Add(-inc)
}

// MultiTier composes limiters into one quota where every tier must
// admit: the returned wait is the maximum across tiers (each tier's
// constraint is satisfied by waiting the longest one), and a refusal by
// any tier cancels the charges already made on earlier tiers, so a shed
// request consumes no quota. A typical two-tier quota pairs a tight
// per-second limiter (smoothing) with a larger per-minute one (sustained
// cap).
type MultiTier struct {
	tiers []Limiter
}

// NewMultiTier composes tiers; at least one is required.
func NewMultiTier(tiers ...Limiter) (*MultiTier, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("limit: multi-tier quota needs at least one tier")
	}
	return &MultiTier{tiers: append([]Limiter(nil), tiers...)}, nil
}

// Name implements Limiter.
func (m *MultiTier) Name() string {
	name := "multi("
	for i, l := range m.tiers {
		if i > 0 {
			name += "+"
		}
		name += l.Name()
	}
	return name + ")"
}

// Reserve implements Limiter.
func (m *MultiTier) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	var wait time.Duration
	for i, l := range m.tiers {
		w, ok := l.Reserve(now, n, maxWait)
		if !ok {
			for _, prev := range m.tiers[:i] {
				if c, can := prev.(Canceler); can {
					c.Cancel(now, n)
				}
			}
			return 0, false
		}
		if w > wait {
			wait = w
		}
	}
	return wait, true
}

// Cancel implements Canceler across every tier.
func (m *MultiTier) Cancel(now time.Time, n float64) {
	for _, l := range m.tiers {
		if c, ok := l.(Canceler); ok {
			c.Cancel(now, n)
		}
	}
}

var (
	_ Limiter  = (*TokenBucket)(nil)
	_ Limiter  = (*GCRA)(nil)
	_ Limiter  = (*MultiTier)(nil)
	_ Canceler = (*TokenBucket)(nil)
	_ Canceler = (*GCRA)(nil)
	_ Canceler = (*MultiTier)(nil)
)
