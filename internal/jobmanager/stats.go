package jobmanager

import (
	"time"

	"flowkv/internal/metrics"
)

// tenantStats is the live per-tenant accounting: lock-free counters the
// admission path bumps on every decision, an admit-latency histogram,
// and a queue-depth gauge (tuples currently delayed inside Reserve
// waits).
type tenantStats struct {
	admitted   metrics.Counter // tuples admitted at the ingest choke point
	throttled  metrics.Counter // tuples admitted after a rate-limit delay
	shed       metrics.Counter // tuples refused (dropped) at the ingest choke point
	bytesIn    metrics.Counter // store-write bytes admitted
	bytesSlow  metrics.Counter // store-write calls delayed by the bandwidth limiter
	queueDepth metrics.Gauge   // tuples currently held in an admission wait
	admitLat   *metrics.Histogram
	failovers  metrics.Counter
	rebalances metrics.Counter
	ckpts      metrics.Counter
	// ckptLinked/ckptCopied mirror the FlowKV stores' incremental
	// checkpoint byte counters (gauges: refreshed from the backends at
	// every committed checkpoint, on a base carried across failovers).
	ckptLinked metrics.Gauge
	ckptCopied metrics.Gauge
	// storeStalls mirrors the stores' deadline-abandoned-op counters
	// (base carried across failovers, like the checkpoint bytes);
	// storeWriteP99/storeSyncP99/storeEWMA are the worst per-op latency
	// quantiles across the tenant's current backends, in nanoseconds.
	storeStalls   metrics.Gauge
	storeWriteP99 metrics.Gauge
	storeSyncP99  metrics.Gauge
	storeEWMA     metrics.Gauge
}

func newTenantStats() *tenantStats {
	return &tenantStats{admitLat: metrics.NewHistogram()}
}

// Stats is one tenant's externally visible snapshot — what
// `flowkvctl tenants` prints and the noisy-neighbor battery asserts on.
type Stats struct {
	Tenant string `json:"tenant"`
	// State is "running", "done" or "failed".
	State string `json:"state"`
	// Slot is the pool slot currently (or last) hosting the tenant.
	Slot string `json:"slot"`
	// Admitted/Throttled/Shed count ingest admission decisions:
	// admitted tuples entered the pipeline (Throttled counts the subset
	// that waited), shed tuples were refused and dropped.
	Admitted  int64 `json:"admitted"`
	Throttled int64 `json:"throttled"`
	Shed      int64 `json:"shed"`
	// WriteBytes counts store-write bytes through the bandwidth choke
	// point; WriteStalls counts writes the bandwidth limiter delayed.
	WriteBytes  int64 `json:"write_bytes"`
	WriteStalls int64 `json:"write_stalls"`
	// QueueDepth is the number of tuples currently parked in admission
	// waits.
	QueueDepth int64 `json:"queue_depth"`
	// AdmitP50/P99 are admission-latency quantiles (the delay Reserve
	// imposed before a tuple entered the pipeline).
	AdmitP50 time.Duration `json:"admit_p50_ns"`
	AdmitP99 time.Duration `json:"admit_p99_ns"`
	// Failovers counts completed moves to a replacement slot.
	Failovers int64 `json:"failovers"`
	// Rebalances counts planned moves (Manager.Rebalance): clean stops
	// resumed on another slot, as opposed to failure-driven moves.
	Rebalances int64 `json:"rebalances"`
	// Checkpoints counts committed generations across runs.
	Checkpoints int64 `json:"checkpoints"`
	// CkptLinkedBytes/CkptCopiedBytes price the tenant's durability:
	// bytes its incremental checkpoints carried forward by hard link vs
	// bytes physically rewritten since the tenant started.
	CkptLinkedBytes int64 `json:"ckpt_linked_bytes"`
	CkptCopiedBytes int64 `json:"ckpt_copied_bytes"`
	// StoreStalls counts store operations abandoned at the op deadline
	// (hung I/O) across the tenant's stores, cumulative over failovers.
	StoreStalls int64 `json:"store_stalls"`
	// StoreWriteP99/StoreSyncP99 are the worst per-op write/fsync p99
	// across the tenant's current stores; StoreLatencyEWMA is the worst
	// rolling write+fsync average — the signal that drives a
	// ReasonLatency degrade.
	StoreWriteP99    time.Duration `json:"store_write_p99_ns"`
	StoreSyncP99     time.Duration `json:"store_sync_p99_ns"`
	StoreLatencyEWMA time.Duration `json:"store_latency_ewma_ns"`
	// Err is the terminal error for State=="failed".
	Err string `json:"err,omitempty"`
}

// snapshot freezes the live counters into a Stats.
func (ts *tenantStats) snapshot() Stats {
	return Stats{
		Admitted:         ts.admitted.Load(),
		Throttled:        ts.throttled.Load(),
		Shed:             ts.shed.Load(),
		WriteBytes:       ts.bytesIn.Load(),
		WriteStalls:      ts.bytesSlow.Load(),
		QueueDepth:       ts.queueDepth.Load(),
		AdmitP50:         ts.admitLat.P50(),
		AdmitP99:         ts.admitLat.P99(),
		Failovers:        ts.failovers.Load(),
		Rebalances:       ts.rebalances.Load(),
		Checkpoints:      ts.ckpts.Load(),
		CkptLinkedBytes:  ts.ckptLinked.Load(),
		CkptCopiedBytes:  ts.ckptCopied.Load(),
		StoreStalls:      ts.storeStalls.Load(),
		StoreWriteP99:    time.Duration(ts.storeWriteP99.Load()),
		StoreSyncP99:     time.Duration(ts.storeSyncP99.Load()),
		StoreLatencyEWMA: time.Duration(ts.storeEWMA.Load()),
	}
}
