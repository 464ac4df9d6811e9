// Package jobmanager runs many concurrent checkpointed spe.Job
// pipelines — tenants — over a shared pool of store slots, with
// per-tenant admission control and health-aware failover:
//
//   - Admission: each tenant's quota (internal/jobmanager/limit) is
//     applied at two choke points. The ingest point meters events/sec in
//     front of the source — over-quota tuples wait (backpressure) or,
//     past MaxIngestDelay, are shed. The write point meters bytes/sec on
//     every state write — always backpressure, never shed, so admitted
//     tuples keep exactly-once semantics.
//   - Failover: every FlowKV backend's health is subscribed at build
//     time, so a store reaching Failed retires its pool slot the moment
//     the transition happens. The halted tenant is then re-placed on a
//     healthy slot and resumed from its last committed checkpoint — the
//     existing checkpoint/restore path re-drains the committed state
//     into backends on the new slot — instead of staying halted.
//   - Stats: admission decisions, queue depth, admit-latency quantiles,
//     failovers and checkpoints per tenant, persisted as TENANTS.json in
//     the manager directory for `flowkvctl tenants`.
package jobmanager

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager/limit"
	"flowkv/internal/logfile"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// TenantsFileName is the manager's persisted stats snapshot, under the
// manager directory.
const TenantsFileName = "TENANTS.json"

// Quota is one tenant's admission-control configuration: one token
// bucket at each choke point.
type Quota struct {
	// IngestEPS is the sustained source admission rate in events/sec;
	// 0 leaves ingest unmetered. IngestBurst is the instantaneous
	// allowance (default: one second's worth).
	IngestEPS   float64
	IngestBurst float64
	// WriteBPS is the sustained store-write bandwidth in bytes/sec; 0
	// leaves writes unmetered. WriteBurst is the burst allowance in
	// bytes (default: one second's worth).
	WriteBPS   float64
	WriteBurst float64
	// MaxIngestDelay bounds how long one tuple may wait at the ingest
	// point: a tuple whose admission delay would exceed it is shed
	// (dropped, counted). 0 never sheds — pure backpressure, which is
	// what keeps an SLO-bearing tenant's ledger deterministic.
	MaxIngestDelay time.Duration
}

// buckets builds the tenant's ingest and write buckets; each is nil
// when its rate is 0 (unmetered).
func (q Quota) buckets() (ingest, write *limit.TokenBucket, err error) {
	if q.IngestEPS > 0 {
		if ingest, err = limit.NewTokenBucket(limit.Config{Rate: q.IngestEPS, Burst: q.IngestBurst}); err != nil {
			return nil, nil, err
		}
	}
	if q.WriteBPS > 0 {
		if write, err = limit.NewTokenBucket(limit.Config{Rate: q.WriteBPS, Burst: q.WriteBurst}); err != nil {
			return nil, nil, err
		}
	}
	return ingest, write, nil
}

// Tenant is one submitted pipeline job.
type Tenant struct {
	// ID names the tenant (job directory, stats, placement).
	ID string
	// Quota is the tenant's admission-control configuration.
	Quota Quota
	// Source is the tenant's replayable input stream.
	Source spe.SeekableSource
	// Pipeline is the dataflow template. Stateful stages leave
	// NewBackend nil: the manager fills it from MakeBackend with the
	// tenant's current pool slot, wrapping each store with the write
	// limiter and the health subscription.
	Pipeline *spe.Pipeline
	// MakeBackend constructs one worker's store on a slot. Required
	// when the pipeline has stateful stages; see FlowKVBackend for the
	// standard implementation.
	MakeBackend func(slot Slot, stage, worker int) (statebackend.Backend, error)
	// CheckpointEvery is the tenant job's barrier cadence (source
	// tuples per checkpoint). Default 1000.
	CheckpointEvery int
	// Migrations schedules live key-range handoffs inside the tenant's
	// job (spe.Job.Migrations): hash buckets of stateful stages move
	// between workers while the tenant runs, without a restart.
	Migrations []spe.Migration
}

// Options configures a Manager.
type Options struct {
	// Dir is the manager root: per-tenant job directories and
	// TENANTS.json live here.
	Dir string
	// Slots is the shared store pool. A tenant fails over at most
	// len(Slots)-1 times: once onto each other slot.
	Slots []Slot
	// DegradedCheckpointTimeout is the default degraded-wait deadline
	// applied to every tenant job (see spe.Job). Default 2s.
	DegradedCheckpointTimeout time.Duration
	// ProgressDeadline is the default progress-watchdog deadline applied
	// to every tenant job (see spe.Job.ProgressDeadline): a barrier or
	// checkpoint that makes no progress for this long halts the job with
	// a typed stall Halt, which rides the ordinary failover path onto a
	// replacement slot. 0 leaves the watchdog off.
	ProgressDeadline time.Duration
}

// TenantResult is one tenant's terminal outcome.
type TenantResult struct {
	// Stats is the final counter snapshot.
	Stats Stats
	// Result is the last run's job result (nil if the job never built).
	Result *spe.JobResult
	// Err is the terminal error; nil means the tenant ran to Final.
	Err error
}

// tenantRun is the manager-side state of one submitted tenant.
type tenantRun struct {
	t     Tenant
	stats *tenantStats

	mu     sync.Mutex
	state  string // "running", "done", "failed"
	slotID string
	err    error
	result *spe.JobResult

	// job is the currently running spe.Job (nil between runs);
	// rebalance marks that the next clean stop is a planned move, not a
	// terminal outcome.
	job       *spe.Job
	rebalance bool

	// backends are the current run's stateful-stage backends, polled at
	// each checkpoint for incremental-checkpoint byte accounting. A
	// failover rebuilds them on the new slot, so the previous run's
	// totals are folded into the stats gauges' base first (see buildJob).
	backends []statebackend.Backend
	// linkedBase/copiedBase/stallsBase are the gauge bases frozen by
	// buildJob for the current run, kept here so the end-of-run poll in
	// runTenant can fold in counters from a run whose last checkpoint
	// never committed (a stall detected mid-checkpoint would otherwise
	// vanish with the run's backends).
	linkedBase, copiedBase, stallsBase int64
}

// pollStoreStats folds the current backends' counters into the
// tenant's stats gauges: linked/copied checkpoint bytes and abandoned-
// op stall counts accumulate on top of base values carried over from
// earlier runs; the per-op latency gauges take the worst store's
// current value (a tenant is as slow as its slowest shard).
func (tr *tenantRun) pollStoreStats(linkedBase, copiedBase, stallsBase int64) {
	var linked, copied, stalls int64
	var wp99, sp99, ewma time.Duration
	tr.mu.Lock()
	for _, b := range tr.backends {
		if st, ok := statebackend.FlowKVStats(b); ok {
			linked += st.CkptLinkedBytes
			copied += st.CkptCopiedBytes
			stalls += st.Stalls
			if st.WriteP99 > wp99 {
				wp99 = st.WriteP99
			}
			if st.SyncP99 > sp99 {
				sp99 = st.SyncP99
			}
			if st.LatencyEWMA > ewma {
				ewma = st.LatencyEWMA
			}
		}
	}
	tr.mu.Unlock()
	tr.stats.ckptLinked.Set(linkedBase + linked)
	tr.stats.ckptCopied.Set(copiedBase + copied)
	tr.stats.storeStalls.Set(stallsBase + stalls)
	tr.stats.storeWriteP99.Set(int64(wp99))
	tr.stats.storeSyncP99.Set(int64(sp99))
	tr.stats.storeEWMA.Set(int64(ewma))
}

func (tr *tenantRun) setSlot(id string) {
	tr.mu.Lock()
	tr.slotID = id
	tr.mu.Unlock()
}

func (tr *tenantRun) finish(res *spe.JobResult, err error) {
	tr.mu.Lock()
	tr.result = res
	tr.err = err
	if err != nil {
		tr.state = "failed"
	} else {
		tr.state = "done"
	}
	tr.mu.Unlock()
}

// snapshot freezes this tenant's externally visible stats.
func (tr *tenantRun) snapshot() Stats {
	s := tr.stats.snapshot()
	s.Tenant = tr.t.ID
	tr.mu.Lock()
	s.State = tr.state
	s.Slot = tr.slotID
	if tr.err != nil {
		s.Err = tr.err.Error()
	}
	tr.mu.Unlock()
	return s
}

// Manager runs submitted tenants concurrently over the slot pool.
type Manager struct {
	opts Options
	pool *Pool

	mu      sync.Mutex
	tenants map[string]*tenantRun
	order   []string
	wg      sync.WaitGroup
}

// New builds a manager over a fresh pool.
func New(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobmanager: manager needs a directory")
	}
	pool, err := NewPool(opts.Slots)
	if err != nil {
		return nil, err
	}
	if opts.DegradedCheckpointTimeout <= 0 {
		opts.DegradedCheckpointTimeout = 2 * time.Second
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobmanager: %w", err)
	}
	return &Manager{opts: opts, pool: pool, tenants: make(map[string]*tenantRun)}, nil
}

// Pool exposes the backend registry (status, manual marks).
func (m *Manager) Pool() *Pool { return m.pool }

// TenantDir returns the job directory a tenant's checkpoints and ledger
// live in.
func (m *Manager) TenantDir(id string) string {
	return filepath.Join(m.opts.Dir, "tenants", id)
}

// Submit validates a tenant and starts running it. Tenants run
// concurrently; collect outcomes with Wait.
func (m *Manager) Submit(t Tenant) error {
	if t.ID == "" {
		return fmt.Errorf("jobmanager: tenant needs an ID")
	}
	if t.Source == nil {
		return fmt.Errorf("jobmanager: tenant %s needs a source", t.ID)
	}
	if t.Pipeline == nil || len(t.Pipeline.Stages) == 0 {
		return fmt.Errorf("jobmanager: tenant %s needs a pipeline", t.ID)
	}
	stateful := false
	for _, st := range t.Pipeline.Stages {
		if st.Window != nil || st.Join != nil {
			stateful = true
			if st.NewBackend != nil {
				return fmt.Errorf("jobmanager: tenant %s stage %s sets NewBackend; pooled tenants use MakeBackend", t.ID, st.Name)
			}
		}
	}
	if stateful && t.MakeBackend == nil {
		return fmt.Errorf("jobmanager: tenant %s has stateful stages but no MakeBackend", t.ID)
	}
	ingest, writeLim, err := t.Quota.buckets()
	if err != nil {
		return fmt.Errorf("jobmanager: tenant %s: %w", t.ID, err)
	}

	tr := &tenantRun{t: t, stats: newTenantStats(), state: "running"}
	m.mu.Lock()
	if _, dup := m.tenants[t.ID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("jobmanager: duplicate tenant ID %q", t.ID)
	}
	m.tenants[t.ID] = tr
	m.order = append(m.order, t.ID)
	m.mu.Unlock()

	m.wg.Add(1)
	go m.runTenant(tr, ingest, writeLim)
	return nil
}

// runTenant drives one tenant to a terminal state: place, run, and on a
// backend-failure halt, fail over to a replacement slot and resume from
// the committed checkpoint.
func (m *Manager) runTenant(tr *tenantRun, ingest, writeLim *limit.TokenBucket) {
	defer m.wg.Done()
	t := tr.t
	maxWait := time.Duration(-1) // never shed
	if t.Quota.MaxIngestDelay > 0 {
		maxWait = t.Quota.MaxIngestDelay
	}
	src := newAdmittedSource(t.Source, ingest, maxWait, tr.stats, nil)
	exclude := make(map[string]bool)
	leaving := "" // slot a planned rebalance is moving off of
	for attempt := 0; ; attempt++ {
		avoid := exclude
		if leaving != "" {
			// A rebalance only avoids the slot it is leaving; the failover
			// history still applies, but the slot is not burned for good.
			avoid = make(map[string]bool, len(exclude)+1)
			for id := range exclude {
				avoid[id] = true
			}
			avoid[leaving] = true
		}
		slot, err := m.pool.Acquire(t.ID, avoid)
		if err != nil {
			tr.finish(nil, err)
			return
		}
		tr.setSlot(slot.ID)
		job := m.buildJob(tr, slot, src, writeLim)
		tr.mu.Lock()
		tr.job = job
		tr.mu.Unlock()
		res, err := runOrResume(job)
		tr.mu.Lock()
		tr.job = nil
		reb := tr.rebalance
		tr.rebalance = false
		linkedBase, copiedBase, stallsBase := tr.linkedBase, tr.copiedBase, tr.stallsBase
		tr.mu.Unlock()
		// End-of-run poll: a stall counted during a checkpoint that never
		// committed would otherwise vanish with the run's backends.
		// Abandoned runtimes are skipped — their wedged instances could
		// block a stats read forever.
		if !errors.Is(err, spe.ErrProgressStalled) {
			tr.pollStoreStats(linkedBase, copiedBase, stallsBase)
		}
		m.pool.Release(t.ID, slot.ID)
		leaving = ""
		if err == nil && res.Final {
			tr.finish(res, nil)
			return
		}
		if err == nil && res.Stopped && reb {
			// Planned rebalance: resume on a different slot. The committed
			// checkpoint re-drains onto the new slot's stores; no failover
			// is counted and the old slot stays in rotation.
			leaving = slot.ID
			tr.stats.rebalances.Inc()
			continue
		}
		if err == nil {
			tr.finish(res, fmt.Errorf("jobmanager: tenant %s run ended without final commit", t.ID))
			return
		}
		// A typed halt names the backend that took the run down: that is
		// a slot failure, and the tenant fails over. Anything else (bad
		// pipeline, job-dir I/O) is the tenant's own problem.
		if halt := haltOf(res, err); halt != nil && attempt < len(m.opts.Slots)-1 {
			// Observe (rather than MarkFailed directly) records WHY the
			// slot was retired: a stall-flavored halt leaves ReasonStall
			// in the registry for operators to distinguish hung media
			// from erroring media.
			m.pool.Observe(slot.ID, core.Failed, haltReason(halt.Err), halt)
			m.pool.noteFailover(slot.ID)
			exclude[slot.ID] = true
			tr.stats.failovers.Inc()
			continue
		}
		tr.finish(res, err)
		return
	}
}

// Rebalance asks a running tenant to move to a different pool slot: its
// job stops cleanly at the next tuple boundary, the slot is released,
// and the tenant resumes from its committed checkpoint on the
// least-loaded healthy slot other than the one it left. Unlike a
// failover, the old slot stays in rotation and no failover is counted.
// Returns an error if the tenant is unknown or not currently running.
func (m *Manager) Rebalance(tenantID string) error {
	m.mu.Lock()
	tr := m.tenants[tenantID]
	m.mu.Unlock()
	if tr == nil {
		return fmt.Errorf("jobmanager: unknown tenant %q", tenantID)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.state != "running" || tr.job == nil {
		return fmt.Errorf("jobmanager: tenant %s is not running (state %s)", tenantID, tr.state)
	}
	tr.rebalance = true
	tr.job.RequestStop()
	return nil
}

// haltReason classifies a halt's error into the typed health-reason
// taxonomy: progress-watchdog expiries and deadline-abandoned I/O are
// stalls (the disk hung), everything else is an ordinary error.
func haltReason(err error) core.HealthReason {
	if errors.Is(err, spe.ErrProgressStalled) || errors.Is(err, logfile.ErrStalled) {
		return core.ReasonStall
	}
	return core.ReasonError
}

// haltOf extracts the backend-failure halt from a run outcome, nil when
// the failure was not tied to a state backend.
func haltOf(res *spe.JobResult, err error) *spe.Halt {
	var halt *spe.Halt
	if errors.As(err, &halt) && halt.Backend != "" {
		return halt
	}
	if res != nil && res.RunResult != nil && res.Halted != nil && res.Halted.Backend != "" {
		return res.Halted
	}
	return nil
}

// buildJob instantiates the tenant's pipeline template against a slot:
// every stateful stage's backend is built by MakeBackend on the slot,
// subscribed to the pool's health registry, and wrapped with the
// write-bandwidth limiter.
func (m *Manager) buildJob(tr *tenantRun, slot Slot, src spe.SeekableSource, writeLim *limit.TokenBucket) *spe.Job {
	t := tr.t
	p := *t.Pipeline
	p.Stages = append([]spe.Stage(nil), t.Pipeline.Stages...)
	// A rebuilt job means fresh stores whose checkpoint byte counters
	// restart at zero: freeze what the previous run accumulated as the
	// new base and start collecting the new run's backends.
	linkedBase := tr.stats.ckptLinked.Load()
	copiedBase := tr.stats.ckptCopied.Load()
	stallsBase := tr.stats.storeStalls.Load()
	tr.mu.Lock()
	tr.backends = nil
	tr.linkedBase, tr.copiedBase, tr.stallsBase = linkedBase, copiedBase, stallsBase
	tr.mu.Unlock()
	for i := range p.Stages {
		st := &p.Stages[i]
		if st.Window == nil && st.Join == nil {
			continue
		}
		si := i
		st.NewBackend = func(w int) (statebackend.Backend, error) {
			b, err := t.MakeBackend(slot, si, w)
			if err != nil {
				return nil, err
			}
			statebackend.SubscribeHealth(b, func(h core.Health, reason core.HealthReason, herr error) {
				m.pool.Observe(slot.ID, h, reason, herr)
			})
			tr.mu.Lock()
			tr.backends = append(tr.backends, b)
			tr.mu.Unlock()
			if writeLim != nil {
				return newLimitedBackend(b, writeLim, tr.stats, nil), nil
			}
			return b, nil
		}
	}
	return &spe.Job{
		Pipeline:                  &p,
		Source:                    src,
		Dir:                       filepath.Join(m.TenantDir(t.ID), "job"),
		CheckpointEvery:           t.CheckpointEvery,
		Migrations:                t.Migrations,
		DegradedCheckpointTimeout: m.opts.DegradedCheckpointTimeout,
		ProgressDeadline:          m.opts.ProgressDeadline,
		OnCheckpoint: func(int64, bool) {
			tr.stats.ckpts.Inc()
			tr.pollStoreStats(linkedBase, copiedBase, stallsBase)
		},
	}
}

// runOrResume starts or continues a tenant job depending on committed
// progress (mirrors the spe test helper; a resumed tenant after
// failover lands in the Resume arm).
func runOrResume(j *spe.Job) (*spe.JobResult, error) {
	if _, err := spe.ReadJobMeta(j.FS, j.Dir); err == nil {
		return j.Resume()
	}
	return j.Run()
}

// Wait blocks until every submitted tenant reaches a terminal state,
// persists TENANTS.json, and returns the outcomes by tenant ID.
func (m *Manager) Wait() map[string]*TenantResult {
	m.wg.Wait()
	out := make(map[string]*TenantResult)
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, tr := range m.tenants {
		tr.mu.Lock()
		res, err := tr.result, tr.err
		tr.mu.Unlock()
		out[id] = &TenantResult{Stats: tr.snapshot(), Result: res, Err: err}
	}
	if err := m.writeTenantsFileLocked(); err != nil {
		for _, r := range out {
			if r.Err == nil {
				r.Err = err
			}
		}
	}
	return out
}

// Snapshot returns the live per-tenant stats (submission order) and the
// pool status.
func (m *Manager) Snapshot() ([]Stats, []SlotStatus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats := make([]Stats, 0, len(m.order))
	for _, id := range m.order {
		stats = append(stats, m.tenants[id].snapshot())
	}
	return stats, m.pool.Status()
}

// TenantsFile is the persisted TENANTS.json document.
type TenantsFile struct {
	Tenants []Stats      `json:"tenants"`
	Slots   []SlotStatus `json:"slots"`
}

// WriteTenantsFile persists the current stats snapshot atomically.
func (m *Manager) WriteTenantsFile() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeTenantsFileLocked()
}

func (m *Manager) writeTenantsFileLocked() error {
	doc := TenantsFile{Slots: m.pool.Status()}
	for _, id := range m.order {
		doc.Tenants = append(doc.Tenants, m.tenants[id].snapshot())
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("jobmanager: encode %s: %w", TenantsFileName, err)
	}
	if err := faultfs.WriteFileAtomic(faultfs.OS, filepath.Join(m.opts.Dir, TenantsFileName), append(b, '\n')); err != nil {
		return fmt.Errorf("jobmanager: write %s: %w", TenantsFileName, err)
	}
	return nil
}

// ReadTenantsFile loads a manager directory's persisted snapshot (the
// flowkvctl side).
func ReadTenantsFile(dir string) (TenantsFile, error) {
	var doc TenantsFile
	b, err := os.ReadFile(filepath.Join(dir, TenantsFileName))
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("jobmanager: parse %s: %w", TenantsFileName, err)
	}
	return doc, nil
}

// FlowKVBackend is the standard MakeBackend: one FlowKV store per
// (tenant, stage, worker) under the slot directory, on the slot's
// filesystem seam.
func FlowKVBackend(tenantID string, agg core.AggKind, wk window.Kind, assigner window.Assigner, opts core.Options) func(Slot, int, int) (statebackend.Backend, error) {
	return func(slot Slot, stage, worker int) (statebackend.Backend, error) {
		o := opts
		o.FS = slot.FS
		return statebackend.Open(statebackend.Config{
			Kind:       statebackend.KindFlowKV,
			Dir:        filepath.Join(slot.Dir, tenantID, fmt.Sprintf("s%02d-w%02d", stage, worker)),
			Agg:        agg,
			WindowKind: wk,
			Assigner:   assigner,
			FlowKV:     o,
		})
	}
}
