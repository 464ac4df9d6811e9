package logfile

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flowkv/internal/faultfs"
)

// ErrStalled reports a write or fsync that did not complete within the
// policy deadline — the gray-failure mode of a disk that hangs instead
// of erroring. A stalled operation poisons the log through the same
// path as a failed sync: the hung syscall may still complete (or fail)
// at any point in the future, so the descriptor is abandoned — never
// fsynced, written, or even closed again — and recovery goes through
// ReopenAtDurable on a fresh descriptor.
var ErrStalled = errors.New("logfile: I/O stalled past deadline")

// MonKind classifies a latency observation by operation type.
type MonKind int

const (
	// MonWrite is a data write (bufio flush of appended frames).
	MonWrite MonKind = iota
	// MonRead is a positional read.
	MonRead
	// MonSync is an fsync.
	MonSync
)

// String returns the kind name.
func (k MonKind) String() string {
	switch k {
	case MonWrite:
		return "write"
	case MonRead:
		return "read"
	case MonSync:
		return "sync"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Monitor observes the latency of every file operation a Log performs,
// plus stall events (operations abandoned at the deadline). Raw reads
// run concurrently with writes, so implementations must be safe for
// concurrent use.
type Monitor interface {
	// ObserveOp records one completed operation's latency.
	ObserveOp(kind MonKind, d time.Duration)
	// ObserveStall records an operation abandoned after running past
	// the deadline. The operation's caller sees ErrStalled.
	ObserveStall(kind MonKind, deadline time.Duration)
}

// Policy bounds and observes a log's I/O. The zero policy (or a nil
// policy) is a passthrough. Policies are attached with Log.SetPolicy or
// Dir.SetPolicy and may be swapped at any time; logs read them through
// an atomic pointer on every operation.
type Policy struct {
	// Deadline bounds each write and fsync. An operation still running
	// at the deadline returns ErrStalled, latches the descriptor as
	// abandoned, and poisons the log; 0 disables the sentinel. Reads
	// are observed but not bounded — a degraded (poisoned) log keeps
	// serving reads from the durable prefix, and wedging those on a
	// latched stall would turn a slow disk into unavailable data.
	Deadline time.Duration
	// Monitor receives per-op latencies and stall events; nil disables
	// observation.
	Monitor Monitor
}

func (p *Policy) monitor() Monitor {
	if p == nil {
		return nil
	}
	return p.Monitor
}

// guard wraps a log's file descriptor with the policy sentinel. It is
// installed by newLog, so l.f is always the guard and the fd-identity
// checks the split-sync protocol relies on (l.f == tok.f) keep working
// across the wrap. A guard whose operation once ran past the deadline
// is "stalled": the in-flight syscall owns the descriptor forever, so
// every later mutation fails fast with ErrStalled (the never-refsync
// rule extended to never-touch) and Close leaks the fd deliberately —
// closing it under a hung syscall invites the kernel to reuse the
// number while the syscall still references it.
type guard struct {
	lg      *Log
	f       faultfs.File
	stalled atomic.Bool
}

func (g *guard) policy() *Policy { return g.lg.pol.Load() }

func (g *guard) abandonedErr(what string) error {
	return fmt.Errorf("logfile: %s on descriptor abandoned after stall: %w", what, ErrStalled)
}

// timedErr runs fn under the policy's deadline. Used for Sync/Truncate
// (no byte count).
func (g *guard) timedErr(kind MonKind, fn func() error) error {
	_, err := g.timed(kind, func() (int, error) { return 0, fn() })
	return err
}

// timed runs fn, observing its latency and abandoning it at the policy
// deadline. The late result of an abandoned operation is discarded: the
// goroutine running it drains into a buffered channel and exits.
func (g *guard) timed(kind MonKind, fn func() (int, error)) (int, error) {
	if g.stalled.Load() {
		return 0, g.abandonedErr(kind.String())
	}
	p := g.policy()
	mon := p.monitor()
	if p == nil || (p.Deadline <= 0 && mon == nil) {
		return fn()
	}
	start := time.Now()
	if p.Deadline <= 0 {
		n, err := fn()
		mon.ObserveOp(kind, time.Since(start))
		return n, err
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := fn()
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		if mon != nil {
			mon.ObserveOp(kind, time.Since(start))
		}
		return r.n, r.err
	case <-time.After(p.Deadline):
		select {
		case r := <-done: // completed in the race window; take it
			if mon != nil {
				mon.ObserveOp(kind, time.Since(start))
			}
			return r.n, r.err
		default:
		}
		g.stalled.Store(true)
		if mon != nil {
			mon.ObserveStall(kind, p.Deadline)
		}
		return 0, fmt.Errorf("logfile: %s exceeded %v deadline: %w", kind, p.Deadline, ErrStalled)
	}
}

func (g *guard) Write(p []byte) (int, error) {
	return g.timed(MonWrite, func() (int, error) { return g.f.Write(p) })
}

func (g *guard) Sync() error {
	return g.timedErr(MonSync, g.f.Sync)
}

func (g *guard) Truncate(size int64) error {
	if g.stalled.Load() {
		return g.abandonedErr("truncate")
	}
	return g.f.Truncate(size)
}

// ReadAt observes latency but is never bounded or stall-gated: poisoned
// logs serve degraded reads from this descriptor's durable prefix.
func (g *guard) ReadAt(p []byte, off int64) (int, error) {
	pol := g.policy()
	mon := pol.monitor()
	if mon == nil {
		return g.f.ReadAt(p, off)
	}
	start := time.Now()
	n, err := g.f.ReadAt(p, off)
	mon.ObserveOp(MonRead, time.Since(start))
	return n, err
}

func (g *guard) Read(p []byte) (int, error) { return g.f.Read(p) }

func (g *guard) Seek(offset int64, whence int) (int64, error) {
	if g.stalled.Load() {
		return 0, g.abandonedErr("seek")
	}
	return g.f.Seek(offset, whence)
}

func (g *guard) Close() error {
	if g.stalled.Load() {
		return nil // fd deliberately leaked; see the type comment
	}
	return g.f.Close()
}

func (g *guard) Name() string { return g.f.Name() }

// SetPolicy installs (or replaces, or with nil removes) the I/O policy
// on this log. Takes effect on the next operation.
func (l *Log) SetPolicy(p *Policy) { l.pol.Store(p) }

// SetPolicy installs the I/O policy applied to every log this directory
// opens from now on. Logs already open keep their policy.
func (d *Dir) SetPolicy(p *Policy) { d.pol.Store(p) }
