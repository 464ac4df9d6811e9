package jobmanager

import (
	"time"

	"flowkv/internal/jobmanager/limit"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// limitedBackend applies a tenant's write-bandwidth quota (bytes/sec)
// at the store choke point: every state-mutating write charges its
// payload size against the limiter and serves the returned delay before
// hitting the store. The stall propagates backwards naturally — a
// delayed worker drains its input channel slower, the bounded channels
// fill, and the source-side admission point feels the pressure — so a
// tenant that over-writes is slowed end to end rather than ballooning
// memory. Reads are never charged: state already admitted may always be
// drained (the same asymmetry as Degraded mode, which stays readable).
//
// The wrapper implements Unwrap, so capability probes (Checkpointer,
// FlowKVHealth, PartitionedWindowReader) reach the store underneath,
// and checkpoint I/O itself is NOT metered — a checkpoint is the
// manager's durability obligation, not tenant traffic.
type limitedBackend struct {
	statebackend.Backend
	lim   *limit.TokenBucket
	stats *tenantStats
	sleep func(time.Duration)
}

// newLimitedBackend wraps b; lim may not be nil.
func newLimitedBackend(b statebackend.Backend, lim *limit.TokenBucket, stats *tenantStats, sleep func(time.Duration)) *limitedBackend {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &limitedBackend{Backend: b, lim: lim, stats: stats, sleep: sleep}
}

// Unwrap lets capability probes reach the wrapped backend.
func (lb *limitedBackend) Unwrap() statebackend.Backend { return lb.Backend }

// charge meters n payload bytes, sleeping out the limiter's delay.
// Write bandwidth is pure backpressure — never shed: a tuple already
// admitted at the ingest point must have its state update applied, or
// exactly-once replay would diverge. A write larger than the burst
// capacity is admitted in shrinking slices, each metered at the
// sustained rate.
func (lb *limitedBackend) charge(n int) {
	if n <= 0 {
		return
	}
	remaining := float64(n)
	chunk := remaining
	for remaining > 0 {
		wait, ok := lb.lim.Reserve(time.Now(), chunk, -1)
		if !ok {
			// Chunk exceeds the burst capacity: halve and retry.
			chunk /= 2
			if chunk < 1 {
				break // burst < 1 unit: nothing meterable, don't spin
			}
			continue
		}
		if wait > 0 {
			lb.stats.bytesSlow.Inc()
			lb.sleep(wait)
		}
		remaining -= chunk
		if chunk > remaining {
			chunk = remaining
		}
	}
	lb.stats.bytesIn.Add(int64(n))
}

func (lb *limitedBackend) Append(key, value []byte, w window.Window, ts int64) error {
	lb.charge(len(key) + len(value))
	return lb.Backend.Append(key, value, w, ts)
}

func (lb *limitedBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	lb.charge(len(key) + len(agg))
	return lb.Backend.PutAgg(key, w, agg)
}

var (
	_ statebackend.Backend   = (*limitedBackend)(nil)
	_ statebackend.Unwrapper = (*limitedBackend)(nil)
)

// admittedSource is the ingest choke point: a SeekableSource whose Next
// passes each tuple through the tenant's ingest limiter. Admission has
// three outcomes:
//
//   - immediate: the quota has room; the tuple passes untouched.
//   - throttled: the quota is exhausted but the delay fits MaxIngestDelay
//     (or the tenant never sheds); Next sleeps the delay — upstream
//     backpressure — and then passes the tuple.
//   - shed: the delay would exceed MaxIngestDelay; the tuple is dropped
//     (counted, never fed) and Next moves to the following one.
//
// Offset/SeekTo delegate to the wrapped source, so job checkpoints
// commit positions in the underlying stream. Note that shedding is a
// wall-clock decision: a tenant that sheds trades replay determinism
// for bounded delay, which is why SLO-bearing tenants run with
// MaxIngestDelay=0 (pure backpressure, deterministic ledger) and only
// over-quota best-effort tenants shed.
type admittedSource struct {
	src     spe.SeekableSource
	lim     *limit.TokenBucket
	maxWait time.Duration // <0: never shed
	stats   *tenantStats
	sleep   func(time.Duration)
}

func newAdmittedSource(src spe.SeekableSource, lim *limit.TokenBucket, maxWait time.Duration, stats *tenantStats, sleep func(time.Duration)) *admittedSource {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &admittedSource{src: src, lim: lim, maxWait: maxWait, stats: stats, sleep: sleep}
}

// Next implements spe.SeekableSource.
func (a *admittedSource) Next() (spe.Tuple, bool) {
	for {
		t, ok := a.src.Next()
		if !ok {
			return spe.Tuple{}, false
		}
		if a.lim == nil {
			a.stats.admitted.Inc()
			return t, true
		}
		wait, ok := a.lim.Reserve(time.Now(), 1, a.maxWait)
		if !ok {
			a.stats.shed.Inc()
			continue // drop this tuple, try the next
		}
		if wait > 0 {
			a.stats.throttled.Inc()
			a.stats.queueDepth.Add(1)
			a.sleep(wait)
			a.stats.queueDepth.Add(-1)
		}
		a.stats.admitLat.Observe(wait)
		a.stats.admitted.Inc()
		return t, true
	}
}

// Offset implements spe.SeekableSource.
func (a *admittedSource) Offset() int64 { return a.src.Offset() }

// SeekTo implements spe.SeekableSource.
func (a *admittedSource) SeekTo(off int64) error { return a.src.SeekTo(off) }

var _ spe.SeekableSource = (*admittedSource)(nil)
