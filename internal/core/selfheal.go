package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// SelfHealOptions configures a background recoverer started with
// Store.StartSelfHealer.
type SelfHealOptions struct {
	// Interval is how often the healer polls the store's health while it
	// is Healthy. Default 5ms.
	Interval time.Duration
	// InitialBackoff is the delay before retrying after a failed
	// Recover; it doubles on every consecutive failure up to MaxBackoff.
	// Defaults 10ms and 1s.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxAttempts bounds consecutive failed Recover attempts before the
	// healer gives up (the store is left Failed and GaveUp reports
	// true). 0 means retry forever.
	MaxAttempts int
}

// SelfHealer is a supervised background recoverer: it watches the
// store's health and drives Degraded (or Failed) states through
// Recover() with exponential backoff. Recover reopens poisoned logs at
// their durable offset, so a heal never invents state — if recovery
// itself faults, the store re-fails cleanly (Recover moves it to
// Failed) and the healer backs off and retries, up to MaxAttempts.
type SelfHealer struct {
	s    *Store
	opts SelfHealOptions

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	attempts atomic.Int64
	heals    atomic.Int64

	mu      sync.Mutex
	lastErr error
	gaveUp  bool
}

// StartSelfHealer launches a background recoverer for the store. Stop it
// with Stop before closing the store. Multiple healers on one store are
// safe (Recover is serialized by the instance I/O locks) but pointless.
func (s *Store) StartSelfHealer(opts SelfHealOptions) *SelfHealer {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	if opts.InitialBackoff <= 0 {
		opts.InitialBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	h := &SelfHealer{s: s, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *SelfHealer) run() {
	defer close(h.done)
	backoff := h.opts.InitialBackoff
	consecutive := 0
	wait := h.opts.Interval
	for {
		select {
		case <-h.stop:
			return
		case <-time.After(wait):
		}
		if h.s.Health() == Healthy {
			backoff = h.opts.InitialBackoff
			consecutive = 0
			wait = h.opts.Interval
			continue
		}
		h.attempts.Add(1)
		err := h.s.Recover()
		h.mu.Lock()
		h.lastErr = err
		h.mu.Unlock()
		if err == nil {
			h.heals.Add(1)
			backoff = h.opts.InitialBackoff
			consecutive = 0
			wait = h.opts.Interval
			continue
		}
		consecutive++
		if h.opts.MaxAttempts > 0 && consecutive >= h.opts.MaxAttempts {
			h.mu.Lock()
			h.gaveUp = true
			h.mu.Unlock()
			return
		}
		wait = backoff
		backoff *= 2
		if backoff > h.opts.MaxBackoff {
			backoff = h.opts.MaxBackoff
		}
	}
}

// Stop halts the healer and waits for its goroutine to exit. Safe to
// call more than once, and after the healer has given up.
func (h *SelfHealer) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// Attempts returns how many Recover calls the healer has made.
func (h *SelfHealer) Attempts() int64 { return h.attempts.Load() }

// Heals returns how many of those attempts succeeded.
func (h *SelfHealer) Heals() int64 { return h.heals.Load() }

// LastErr returns the most recent Recover error (nil after a successful
// heal).
func (h *SelfHealer) LastErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// GaveUp reports whether the healer exhausted MaxAttempts consecutive
// failed recoveries and stopped retrying; the store is left Failed.
func (h *SelfHealer) GaveUp() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gaveUp
}
