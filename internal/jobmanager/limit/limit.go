// Package limit implements the token bucket the job manager meters its
// two choke points with: source ingest (events/sec per tenant) and
// store write bandwidth (bytes/sec per tenant).
//
// Reserve(now, n, maxWait) either charges n units and returns the delay
// the caller must serve before proceeding (backpressure), or refuses
// without charging anything (shed). Time is passed in explicitly, which
// keeps tests deterministic and lets a caller amortize clock reads
// across choke points.
package limit

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Config parameterizes one bucket.
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

// TokenBucket is the classic leaky-bucket-as-meter: tokens refill at
// Rate per second up to Burst, each admitted unit spends one token, and
// a reservation may drive the balance negative — the debt divided by
// the rate is exactly the wait the caller is told to serve, so a
// saturated bucket turns into smooth backpressure rather than a hard
// edge. It is safe for concurrent use.
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

// Reserve requests admission of n units at time now. When ok, the n
// units are charged and the caller must wait `wait` (possibly zero)
// before proceeding — the backpressure path. When !ok, nothing was
// charged: admitting n units would require delaying beyond maxWait (or
// n exceeds the burst, which no wait admits at once) — the shed path.
// maxWait < 0 means the caller will wait however long it takes; only an
// n larger than the burst is ever refused.
func (tb *TokenBucket) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	if n > tb.burst {
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
