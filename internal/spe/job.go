package spe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/metrics"
	"flowkv/internal/statebackend"
)

// Jobs: checkpointed pipeline runs with exactly-once resume.
//
// A Job executes a Pipeline like Run does, but periodically pauses the
// stream at an aligned barrier and commits a resumable point: every
// worker's backend is checkpointed (carrying that worker's operator
// control state as application metadata), the sink results produced
// since the previous barrier are appended to a durable ledger, and a
// JOB file naming the new generation, the source offset, and the
// committed ledger length is atomically renamed into place. The JOB
// rename is the single commit point — a crash at any instant leaves
// either the previous committed generation or the new one.
//
// Resume reverses the protocol: it reads the JOB file, discards any
// uncommitted generation directories and ledger suffix, rebuilds every
// worker's backend from the committed checkpoint (restoring operator
// state from the checkpoint metadata), seeks the source back to the
// committed offset, and replays. Replayed results land in the same
// inter-barrier segments as an uninterrupted run, and each segment is
// sorted canonically before it is appended, so the committed ledger of
// a crashed-and-resumed job is byte-identical to an uninterrupted one:
// exactly-once sink output without deduplicating individual results.
//
// Every pipeline shape participates. Interval-join stages snapshot and
// restore like window stages (IntervalJoinOperator implements the
// snapshot contract). Resume may also change a stage's parallelism:
// committed per-worker cuts are regrouped by key before replay (see
// rescale.go).
//
// Determinism requirements on the pipeline: a seekable, deterministic
// source, and every stateful backend must support checkpointing
// (statebackend.Checkpointer — FlowKV). Worker interleaving across
// stages is absorbed by the per-segment canonical sort.

// Job file names inside Job.Dir.
const (
	jobMetaName = "JOB"      // committed progress record (atomic rename)
	genMetaName = "GENMETA"  // per-generation copy of the progress record
	ledgerName  = "SINK.log" // committed sink results, one block per commit
	genPrefix   = "gen-"     // checkpoint generation directories
)

// jobMetaMagic versions the JOB (and GENMETA) record: progress, the
// per-stage parallelisms (the key-range manifest) and the per-stage
// routing tables (live-migration ownership).
const jobMetaMagic = "flowkv-job3\n"

// maxDecodedCount bounds every count the JOB and migration-journal
// decoders read (stages, routing tables and entries, journal records)
// against corrupt input.
const maxDecodedCount = 1 << 16

// selfHealWait bounds how long a barrier checkpoint waits for a
// degraded store to heal when the job sets SelfHeal but no
// DegradedCheckpointTimeout.
const selfHealWait = 5 * time.Second

// ErrJobKilled reports a run aborted by the KillAfterTuples crash knob.
var ErrJobKilled = errors.New("spe: job killed (simulated crash)")

// ErrCheckpointTimeout reports a barrier checkpoint that waited out its
// DegradedCheckpointTimeout without the store returning to Healthy. The
// run halts with a typed *Halt wrapping this error; the job stays
// resumable from the previous committed generation.
var ErrCheckpointTimeout = errors.New("spe: checkpoint degraded-wait deadline exceeded")

// ErrProgressStalled reports the progress watchdog firing: a barrier
// failed to align, or a checkpoint snapshot made no progress, within
// Job.ProgressDeadline. The run halts with a typed *Halt naming the
// stuck stage, worker and backend; the job stays resumable from the
// previous committed generation — the gray-failure analogue of a crash.
var ErrProgressStalled = errors.New("spe: progress watchdog deadline exceeded")

// Job configures a checkpointed pipeline run.
type Job struct {
	// Pipeline is the dataflow; every stateful backend must support
	// checkpointing (statebackend.Checkpointer). Stage parallelism may
	// differ from the committed generation's — Resume re-partitions the
	// committed state along key ranges.
	Pipeline *Pipeline
	// Source is the replayable input stream.
	Source SeekableSource
	// Dir is the job directory: checkpoint generations, the JOB commit
	// file, and the sink ledger live here.
	Dir string
	// FS is the filesystem seam for job files (fault injection);
	// defaults to the real filesystem. Backend state goes through each
	// backend's own FS option.
	FS faultfs.FS
	// CheckpointEvery is the number of source tuples between barrier
	// checkpoints. Default 1000.
	CheckpointEvery int
	// RetainGenerations is how many committed checkpoint generations to
	// keep on disk (default 1, the latest). Values >= 2 give Resume a
	// fallback: when the committed tip fails checksum verification at
	// restore, it is quarantined and the job restarts from the newest
	// older generation's own GENMETA record — replaying further back but
	// still producing a byte-identical ledger. Each retained generation
	// costs only its CUTs: its files are hard links to the store's sealed
	// logs.
	RetainGenerations int
	// KillAfterTuples, when positive, aborts the run after that many
	// tuples have been fed this run — a simulated crash for the recovery
	// battery: no commit happens after the kill, and the job must be
	// resumed. 0 disables.
	KillAfterTuples int64
	// SelfHeal, when set, starts a core.SelfHealer on every FlowKV
	// backend so Degraded stores recover in the background, and lets a
	// barrier checkpoint wait for the heal and retry once instead of
	// aborting the run.
	SelfHeal *core.SelfHealOptions
	// DegradedCheckpointTimeout, when positive, replaces the 5 s
	// wait-and-retry-while-Degraded deadline of SelfHeal, and hardens
	// the failure mode: where an expired 5 s wait surfaces whatever raw
	// checkpoint error last occurred, an expired
	// DegradedCheckpointTimeout halts the run with a typed *Halt whose
	// error wraps ErrCheckpointTimeout — the signal a job manager keys
	// failover on.
	DegradedCheckpointTimeout time.Duration
	// OnCheckpoint, when set, is invoked after every committed
	// generation (the JOB rename has landed) with the generation number
	// and whether it was the final commit. It runs on the coordinator
	// goroutine between barriers — keep it fast. Job managers use it to
	// track per-tenant checkpoint progress.
	OnCheckpoint func(gen int64, final bool)
	// Migrations schedules live key-range handoffs: each entry moves one
	// hash bucket of a private stateful stage to another worker while
	// the job runs, via the crash-safe two-phase protocol in migrate.go.
	Migrations []Migration
	// ProgressDeadline, when positive, arms the progress watchdog: every
	// barrier must align, and every checkpoint snapshot must return,
	// within this bound. A run that blows the deadline halts with a
	// typed *Halt wrapping ErrProgressStalled (naming the stuck stage,
	// worker and backend — the failover signal for a disk that hangs
	// without erroring), abandons the wedged goroutines, and stays
	// resumable from the previous committed generation. Set it well
	// above the worst healthy barrier interval; it is a last line of
	// defense behind the store-level core.Options.OpDeadline. 0 disables.
	ProgressDeadline time.Duration

	// stopReq is armed by RequestStop; the run loop honors it between
	// tuples.
	stopReq atomic.Bool
}

// RequestStop asks a running job to stop cleanly at the next tuple
// boundary: no commit is taken after the request, the run returns with
// JobResult.Stopped set and a nil error, and Resume continues from the
// last committed generation exactly as after a crash — except nothing
// needs recovering. Job managers use it to relocate a tenant (planned
// rebalancing) without burning a failover or waiting for end of stream.
// Safe to call from any goroutine, any number of times.
func (j *Job) RequestStop() { j.stopReq.Store(true) }

// JobMeta is the committed progress record stored in the JOB file.
type JobMeta struct {
	// Gen is the committed checkpoint generation (its directory is
	// gen-<Gen> under the job dir).
	Gen int64
	// Final marks the job complete: the source was exhausted and the
	// post-Finish state committed.
	Final bool
	// Offset is the source position to Seek to on resume.
	Offset int64
	// TuplesIn, MaxTS and SinceWM restore the watermark cadence so
	// replayed watermarks land between the same tuples.
	TuplesIn int64
	MaxTS    int64
	SinceWM  int64
	// LedgerLen is the committed sink ledger length in bytes; anything
	// beyond it is an uncommitted suffix discarded on resume.
	LedgerLen int64
	// StagePars records each pipeline stage's parallelism at commit time
	// — the key-range manifest: worker w of stage s held exactly the
	// keys with routeKey(key, StagePars[s]) == w. Resume reads each
	// stage's committed worker count here.
	StagePars []int64
	// Routing records each stage's live routing table at commit time:
	// Routing[s][b] is the worker of stage s that owns hash bucket b
	// (len StagePars[s] when present). A nil table, or a nil entry for a
	// stage, means identity — bucket b is owned by worker b. Only live
	// migration (see migrate.go) produces non-identity tables; the JOB
	// rename that carries a flipped table is a migration's single commit
	// point. Resume at a different parallelism resets the stage to
	// identity (the rescale path re-routes every key from scratch).
	Routing [][]int64
}

// SinkRecord is one committed sink result.
type SinkRecord struct {
	// TS is the result's event timestamp.
	TS int64
	// Key and Value are the result tuple's payload.
	Key, Value []byte
}

// JobResult extends RunResult with job progress.
type JobResult struct {
	*RunResult
	// Gen is the last committed checkpoint generation.
	Gen int64
	// Checkpoints counts commits made during this run (including the
	// final one).
	Checkpoints int64
	// Final reports the job ran to end of stream and committed its
	// final state; Resume on a final job is a no-op.
	Final bool
	// Killed reports the run was aborted by KillAfterTuples.
	Killed bool
	// Stopped reports the run ended early because RequestStop was
	// called; the job is resumable from Gen.
	Stopped bool
	// LedgerLen is the committed sink ledger length in bytes.
	LedgerLen int64
}

func (j *Job) fs() faultfs.FS {
	if j.FS != nil {
		return j.FS
	}
	return faultfs.OS
}

// GenDirName names generation gen's directory inside a job directory.
func GenDirName(gen int64) string { return fmt.Sprintf("%s%06d", genPrefix, gen) }

// Run starts the job from a clean slate. It refuses to run over a job
// directory that already has committed progress — use Resume there. Any
// uncommitted debris from a previous attempt (partial generation
// directories, an unreferenced ledger) is cleared first.
func (j *Job) Run() (*JobResult, error) {
	fsys := j.fs()
	if _, err := fsys.ReadFile(filepath.Join(j.Dir, jobMetaName)); err == nil {
		return nil, fmt.Errorf("spe: job dir %s has committed progress; use Resume", j.Dir)
	}
	if err := fsys.MkdirAll(j.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spe: job: %w", err)
	}
	return j.run(nil)
}

// Resume continues a job from its last committed checkpoint: newest
// valid generation restored, source replayed from the committed offset,
// uncommitted ledger suffix discarded. Resume is idempotent — a crash
// during recovery leaves the committed state untouched, and Resume can
// simply be called again.
//
// When the committed tip fails checksum verification during restore
// (silent corruption, surfacing as core.ErrCheckpointInvalid), the
// rotten generation is quarantined and Resume falls back to the newest
// older generation that RetainGenerations kept alive, restarting from
// that generation's own GENMETA progress record: source offset, ledger
// length and routing all rewind together, so the replayed ledger stays
// byte-identical to an uninterrupted run. With nothing to fall back to
// (RetainGenerations 1, or every retained generation rotten) the
// original verification error is returned.
func (j *Job) Resume() (*JobResult, error) {
	fsys := j.fs()
	meta, err := ReadJobMeta(fsys, j.Dir)
	if err != nil {
		return nil, err
	}
	res, err := j.run(&meta)
	for err != nil && errors.Is(err, core.ErrCheckpointInvalid) {
		tip := filepath.Join(j.Dir, GenDirName(meta.Gen))
		if qerr := core.QuarantineCheckpoint(fsys, tip, err.Error()); qerr != nil {
			return res, err
		}
		fb, ok := j.fallbackMeta(meta.Gen)
		if !ok {
			return res, err
		}
		meta = fb
		res, err = j.run(&meta)
	}
	return res, err
}

// fallbackMeta locates the newest committed generation older than gen
// that is not quarantined and still carries a decodable GENMETA record,
// returning its progress record.
func (j *Job) fallbackMeta(gen int64) (JobMeta, bool) {
	fsys := j.fs()
	gens, err := ListGenerations(fsys, j.Dir)
	if err != nil {
		return JobMeta{}, false
	}
	for i := len(gens) - 1; i >= 0; i-- {
		if gens[i] >= gen {
			continue
		}
		dir := filepath.Join(j.Dir, GenDirName(gens[i]))
		if core.IsQuarantined(fsys, dir) {
			continue
		}
		b, err := fsys.ReadFile(filepath.Join(dir, genMetaName))
		if err != nil {
			continue
		}
		m, err := decodeJobMeta(b)
		if err != nil || m.Gen != gens[i] {
			continue
		}
		return m, true
	}
	return JobMeta{}, false
}

// retain is the effective generation-retention count (at least 1).
func (j *Job) retain() int64 {
	if j.RetainGenerations > 1 {
		return int64(j.RetainGenerations)
	}
	return 1
}

// jobStage is one stateful stage of a running job: its operators, each
// over its own private backend (ops[w].Backend(), swapped in place by a
// migration).
type jobStage struct {
	si   int    // pipeline stage index
	name string // stage name for errors
	par  int    // current parallelism
	join bool   // interval-join stage (selects the snapshot codec)
	ops  []opSnapshotter
	// Per-worker self-healer stop functions (nil entries when no healer
	// runs). Tracked per worker so live migration can stop and restart a
	// single worker's healer around a backend swap.
	heal []func()
}

// jobRun is the state of one job execution attempt.
type jobRun struct {
	j       *Job
	fsys    faultfs.FS
	r       *runtime
	stages  []*jobStage
	segment []SinkRecord
	lf      faultfs.File
	ledger  int64         // committed + appended ledger bytes
	blocks  ledgerEncoder // the ledger block buffers, reused across commits
	gen     int64         // last committed generation

	// Live-migration state (migrate.go): the loaded journal, the
	// in-flight attempt, and which plan entries this run has attempted.
	migs     []MigrationRecord
	inflight *migRun
	migTried map[int]bool
}

func (j *Job) run(meta *JobMeta) (*JobResult, error) {
	fsys := j.fs()
	every := j.CheckpointEvery
	if every <= 0 {
		every = 1000
	}
	if j.Source == nil {
		return nil, fmt.Errorf("spe: job needs a seekable source")
	}
	if meta != nil && meta.Final {
		return &JobResult{
			RunResult: &RunResult{Latency: metrics.NewHistogram()},
			Gen:       meta.Gen, Final: true, LedgerLen: meta.LedgerLen,
		}, nil
	}

	// Discard uncommitted debris: generation directories other than the
	// committed one, and any ledger suffix past the committed length.
	keepGen := int64(-1)
	commitLen := int64(0)
	if meta != nil {
		keepGen, commitLen = meta.Gen, meta.LedgerLen
	}
	if err := clearGens(fsys, j.Dir, keepGen, j.retain()); err != nil {
		return nil, err
	}
	lf, err := openLedger(fsys, j.Dir, commitLen)
	if err != nil {
		return nil, err
	}

	// Build the pipeline over fresh worker state: live directories may
	// hold the torn remains of a crashed run, and checkpoint restore
	// requires an empty store, so each backend is destroyed and
	// reopened before use.
	p := *j.Pipeline
	p.Stages = append([]Stage(nil), j.Pipeline.Stages...)
	for i := range p.Stages {
		orig := p.Stages[i].NewBackend
		if orig == nil {
			continue
		}
		p.Stages[i].NewBackend = func(w int) (statebackend.Backend, error) {
			b, err := orig(w)
			if err != nil {
				return nil, err
			}
			if err := b.Destroy(); err != nil {
				return nil, fmt.Errorf("spe: job: clear stale worker state: %w", err)
			}
			return orig(w)
		}
	}

	jr := &jobRun{j: j, fsys: fsys, lf: lf, ledger: commitLen}
	sink := func(t Tuple) {
		jr.segment = append(jr.segment, SinkRecord{
			TS:    t.TS,
			Key:   append([]byte(nil), t.Key...),
			Value: append([]byte(nil), t.Value...),
		})
	}
	r, err := newRuntime(&p, sink, true)
	if err != nil {
		lf.Close()
		return nil, err
	}
	jr.r = r

	fail := func(err error) (*JobResult, error) {
		r.destroyBackends()
		lf.Close()
		return nil, err
	}
	for si, rt := range r.rts {
		if rt.stage.Window == nil && rt.stage.Join == nil {
			continue
		}
		js := &jobStage{si: si, name: rt.stage.Name, par: rt.par, join: rt.stage.Join != nil}
		for wi, op := range rt.ops {
			snapOp, ok := op.(opSnapshotter)
			if !ok {
				return fail(fmt.Errorf("spe: stage %s worker %d: operator does not support snapshots", rt.stage.Name, wi))
			}
			js.ops = append(js.ops, snapOp)
			if _, ok := statebackend.AsDeltaCheckpointer(op.Backend()); !ok {
				return fail(fmt.Errorf("spe: stage %s: backend %s does not support checkpointing", rt.stage.Name, op.Backend().Name()))
			}
		}
		jr.stages = append(jr.stages, js)
	}
	if err := jr.validateMigrations(); err != nil {
		return fail(err)
	}

	// Restore the committed cut (resume) or rewind the source (fresh).
	if meta != nil {
		if err := jr.restoreCommitted(*meta); err != nil {
			return fail(err)
		}
		if err := j.Source.SeekTo(meta.Offset); err != nil {
			return fail(fmt.Errorf("spe: job resume: %w", err))
		}
		r.tuplesIn = meta.TuplesIn
		r.maxTS = meta.MaxTS
		r.sinceWM = int(meta.SinceWM)
		jr.gen = meta.Gen
		// Re-apply committed routing tables. A stage resumed at a
		// different parallelism drops back to identity: the rescale path
		// just re-routed every key from scratch.
		for si, tab := range meta.Routing {
			if si >= len(r.rts) || len(tab) != r.rts[si].par {
				continue
			}
			route := make([]int, len(tab))
			identity := true
			for b, w := range tab {
				route[b] = int(w)
				if int(w) != b {
					identity = false
				}
			}
			if !identity {
				r.rts[si].route = route
			}
		}
		// Resolve any migration the crash interrupted: flipped routing
		// means committed, anything else aborted; staging debris goes.
		if err := jr.reconcileMigrations(*meta); err != nil {
			return fail(err)
		}
	} else {
		if err := j.Source.SeekTo(0); err != nil {
			return fail(fmt.Errorf("spe: job: %w", err))
		}
		if err := jr.clearMigrationDebris(); err != nil {
			return fail(err)
		}
	}

	// Background self-healing, if configured.
	jr.startHealers()

	r.startWorkers()
	var (
		checkpoints int64
		killed      bool
		stopped     bool
		srcDone     bool
		runErr      error
		fedThisRun  int64
	)
loop:
	for !srcDone {
		for fed := 0; fed < every; fed++ {
			if r.halted.Load() {
				break loop
			}
			if j.KillAfterTuples > 0 && fedThisRun >= j.KillAfterTuples {
				killed = true
				break loop
			}
			if j.stopReq.Load() {
				stopped = true
				break loop
			}
			t, ok := j.Source.Next()
			if !ok {
				srcDone = true
				break
			}
			r.feed(t)
			fedThisRun++
		}
		if srcDone || r.halted.Load() {
			break
		}
		b, berr := r.injectBarrier(j.ProgressDeadline)
		if berr != nil {
			// Watchdog expiry: the halt is latched, the runtime abandoned.
			runErr = berr
			break
		}
		if r.halted.Load() {
			// A worker failed while the barrier was aligning; committing
			// now would checkpoint past a lost state update.
			close(b.resume)
			break
		}
		// Drive any in-flight migration while the workers are parked:
		// join its PREPARE phase, then commit the handoff in memory (or
		// abort and continue unchanged). The JOB rename below persists a
		// flipped routing table — the migration's single commit point.
		if err := jr.migrateBarrier(); err != nil {
			runErr = err
			close(b.resume)
			break
		}
		err := jr.commit(false)
		close(b.resume)
		if err != nil {
			runErr = err
			break
		}
		checkpoints++
		if err := jr.finishMigration(); err != nil {
			runErr = err
			break
		}
		if err := jr.maybeStartPrepare(); err != nil {
			runErr = err
			break
		}
	}

	// Join any still-running PREPARE clone before teardown; on the
	// crash/kill paths it is left as a real crash would leave it (the
	// journal and staging reconcile on resume). An abandoned runtime
	// skips the join — the clone may be wedged on the same hung store.
	if m := jr.inflight; m != nil && !r.abandoned.Load() {
		<-m.done
	}
	final := false
	if r.abandoned.Load() {
		// Watchdog expiry: drain what exits within the grace period and
		// leak the rest; nothing commits past the wedged worker.
		r.abandonDrain(j.ProgressDeadline)
	} else if killed || stopped || runErr != nil || r.halted.Load() {
		// Abort without committing: drain unprocessed (no Finish).
		r.halted.Store(true)
		r.drain()
	} else {
		// Graceful end of stream: Finish fires the remaining windows,
		// then the post-Finish state commits as the final generation.
		r.drain()
		if r.res.Halted == nil {
			if err := jr.abandonInflight(); err != nil {
				runErr = err
			} else if err := jr.commit(true); err != nil {
				runErr = err
			} else {
				checkpoints++
				final = true
			}
		}
	}
	jr.stopHealers()
	res := r.collect(false)
	lf.Close()

	out := &JobResult{
		RunResult:   res,
		Gen:         jr.gen,
		Checkpoints: checkpoints,
		Final:       final,
		Killed:      killed,
		Stopped:     stopped,
		LedgerLen:   jr.ledger,
	}
	switch {
	case killed:
		return out, ErrJobKilled
	case runErr != nil:
		return out, runErr
	default:
		return out, res.Err
	}
}

// commit writes one checkpoint generation and moves the commit point:
// per-worker checkpoints (with operator snapshots as metadata), the
// sorted sink segment appended to the ledger, then the JOB file renamed
// into place. Superseded generations are garbage-collected after
// the commit.
func (jr *jobRun) commit(final bool) error {
	j := jr.j
	gen := jr.gen + 1
	genDir := filepath.Join(j.Dir, GenDirName(gen))
	if err := jr.fsys.RemoveAll(genDir); err != nil {
		return fmt.Errorf("spe: job checkpoint: clear gen dir: %w", err)
	}
	for _, js := range jr.stages {
		for w, op := range js.ops {
			if err := jr.checkpointCut(gen, js, w, op.Backend(), op.snapshotState()); err != nil {
				return err
			}
		}
	}
	if err := jr.appendSegment(); err != nil {
		return err
	}
	pars := make([]int64, len(jr.r.rts))
	routed := false
	for i, rt := range jr.r.rts {
		pars[i] = int64(rt.par)
		if rt.route != nil {
			routed = true
		}
	}
	var routing [][]int64
	if routed {
		routing = make([][]int64, len(jr.r.rts))
		for i, rt := range jr.r.rts {
			if rt.route == nil {
				continue
			}
			tab := make([]int64, len(rt.route))
			for b, w := range rt.route {
				tab[b] = int64(w)
			}
			routing[i] = tab
		}
	}
	m := JobMeta{
		Gen:       gen,
		Final:     final,
		Offset:    j.Source.Offset(),
		TuplesIn:  jr.r.tuplesIn,
		MaxTS:     jr.r.maxTS,
		SinceWM:   int64(jr.r.sinceWM),
		LedgerLen: jr.ledger,
		StagePars: pars,
		Routing:   routing,
	}
	// The generation carries its own copy of the progress record: when a
	// newer generation rots and is quarantined, Resume restores from this
	// one using its committed offset, ledger length and routing — without
	// trusting the JOB file that points at the rotten tip. Written before
	// the JOB rename so the commit point covers it.
	rec := encodeJobMeta(m)
	if err := faultfs.WriteFileAtomic(jr.fsys, filepath.Join(genDir, genMetaName), rec); err != nil {
		return fmt.Errorf("spe: job commit: gen meta: %w", err)
	}
	// The JOB rename is the job's commit point.
	if err := faultfs.WriteFileAtomic(jr.fsys, filepath.Join(j.Dir, jobMetaName), rec); err != nil {
		return fmt.Errorf("spe: job commit: %w", err)
	}
	jr.gen = gen
	// GC failures do not invalidate the commit; stale generations are
	// re-cleared on the next run.
	clearGens(jr.fsys, j.Dir, gen, j.retain())
	if j.OnCheckpoint != nil {
		j.OnCheckpoint(gen, final)
	}
	return nil
}

// startHealers starts a background self-healer on every backend (when
// the job configures SelfHeal), tracked per worker so a single worker's
// healer can be stopped and restarted around a migration backend swap.
func (jr *jobRun) startHealers() {
	if jr.j.SelfHeal == nil {
		return
	}
	for _, js := range jr.stages {
		js.heal = make([]func(), len(js.ops))
		for w := range js.ops {
			jr.startHeal(js, w)
		}
	}
}

// startHeal (re)starts one worker's self-healer over its current
// backend.
func (jr *jobRun) startHeal(js *jobStage, w int) {
	if jr.j.SelfHeal == nil {
		return
	}
	if js.heal == nil {
		js.heal = make([]func(), len(js.ops))
	}
	jr.stopHeal(js, w)
	if stop, ok := statebackend.StartSelfHeal(js.ops[w].Backend(), *jr.j.SelfHeal); ok {
		js.heal[w] = stop
	}
}

// stopHeal stops one worker's self-healer, if running.
func (jr *jobRun) stopHeal(js *jobStage, w int) {
	if js.heal == nil || w >= len(js.heal) || js.heal[w] == nil {
		return
	}
	js.heal[w]()
	js.heal[w] = nil
}

// stopHealers stops every running self-healer.
func (jr *jobRun) stopHealers() {
	for _, js := range jr.stages {
		for w := range js.heal {
			jr.stopHeal(js, w)
		}
	}
}

// checkpointFailed shapes a checkpoint error. A degraded-wait deadline
// expiry becomes a typed *Halt naming the stage, worker and backend —
// the structured failure a job manager keys failover on — latched into
// the run result exactly as a worker-side halt would be (the workers
// are parked at the barrier, so the coordinator owns the result).
func (jr *jobRun) checkpointFailed(js *jobStage, worker int, b statebackend.Backend, gen int64, err error) error {
	if !errors.Is(err, ErrCheckpointTimeout) && !errors.Is(err, ErrProgressStalled) {
		return fmt.Errorf("spe: job checkpoint gen %d: %w", gen, err)
	}
	h := &Halt{Stage: js.name, Worker: worker, Backend: b.Name(), Err: err}
	jr.r.errMu.Lock()
	if jr.r.res.Halted == nil {
		jr.r.res.Halted = h
	}
	jr.r.errMu.Unlock()
	jr.r.halted.Store(true)
	return h
}

// checkpointCut writes stage js's cut for worker w into generation gen,
// against the same cut of the previous generation, which clearGens has
// kept alive exactly for this: each backend links the files gen-1 already
// holds from there, their bytes durable. Any unusable parent (first
// generation, a parallelism change) silently links every file from the
// live store instead.
func (jr *jobRun) checkpointCut(gen int64, js *jobStage, w int, b statebackend.Backend, meta []byte) error {
	name := cutDirName(js.si, w)
	parent := ""
	if gen > 1 {
		parent = filepath.Join(jr.j.Dir, GenDirName(gen-1), name)
	}
	if err := jr.checkpointBackend(b, filepath.Join(jr.j.Dir, GenDirName(gen), name), parent, meta); err != nil {
		return jr.checkpointFailed(js, w, b, gen, err)
	}
	return nil
}

// snapshotTo takes one checkpoint of b into dir with meta as its
// application metadata, priced against parent: with an empty or unusable
// parent it writes a full base, so later cuts can link against it. Job
// start and swapWorkerBackend admit only backends with the incremental
// capability.
func snapshotTo(b statebackend.Backend, dir, parent string, meta []byte) error {
	dc, _ := statebackend.AsDeltaCheckpointer(b)
	return dc.CheckpointDeltaMeta(dir, parent, meta)
}

// checkpointBackend snapshots one backend with meta as its application
// metadata. If the checkpoint fails while a self-healer is running, wait
// for the store to come back Healthy and retry, bounded by selfHealWait:
// a flush failure during the checkpoint poisons the live logs, Recover
// rewrites the buffered tail at the durable offset, and the retried
// checkpoint captures the full state — the run survives transient faults
// (even ones spanning several retries) without restarting. A store that
// reaches Failed, or a failure that persists with the store Healthy
// (confined to the snapshot directory), aborts the attempt; the run ends
// uncommitted and stays resumable.
func (jr *jobRun) checkpointBackend(b statebackend.Backend, dir, parent string, meta []byte) error {
	snap := func() error { return snapshotTo(b, dir, parent, meta) }
	if pd := jr.j.ProgressDeadline; pd > 0 {
		// Checkpoint-side progress watchdog: a snapshot wedged in a hung
		// syscall (no store-level OpDeadline to bound it) is abandoned at
		// the deadline rather than wedging the coordinator. The leaked
		// goroutine finishes into an abandoned runtime — teardown will
		// not touch its backend.
		bounded := snap
		snap = func() error {
			done := make(chan error, 1)
			go func() { done <- bounded() }()
			select {
			case err := <-done:
				return err
			case <-time.After(pd):
				jr.r.abandoned.Store(true)
				return fmt.Errorf("%w: checkpoint snapshot of %s made no progress in %v", ErrProgressStalled, b.Name(), pd)
			}
		}
	}
	err := snap()
	if errors.Is(err, ErrProgressStalled) {
		return err // the snapshot goroutine is wedged; never retry into it
	}
	typedDeadline := jr.j.DegradedCheckpointTimeout > 0
	if err == nil || (jr.j.SelfHeal == nil && !typedDeadline) {
		return err
	}
	wait := jr.j.DegradedCheckpointTimeout
	if wait <= 0 {
		wait = selfHealWait
	}
	deadline := time.Now().Add(wait)
	wasDegraded := false
	for time.Now().Before(deadline) {
		h, ok := statebackend.FlowKVHealth(b)
		if !ok || h == core.Failed {
			return err
		}
		if h != core.Healthy {
			wasDegraded = true
			time.Sleep(time.Millisecond)
			continue
		}
		if err = snap(); err == nil {
			return nil
		}
		if errors.Is(err, ErrProgressStalled) {
			return err
		}
		if !wasDegraded {
			// The store never left Healthy, so the failure is confined
			// to the snapshot directory; healing cannot fix it.
			return err
		}
		wasDegraded = false
	}
	if typedDeadline {
		return fmt.Errorf("%w after %v (last error: %v)", ErrCheckpointTimeout, wait, err)
	}
	return err
}

// restoreCommitted rebuilds every stateful stage from the committed
// generation. The committed generation is only ever read; a crash
// mid-restore leaves it intact for the next Resume.
func (jr *jobRun) restoreCommitted(meta JobMeta) error {
	genDir := filepath.Join(jr.j.Dir, GenDirName(meta.Gen))
	for _, js := range jr.stages {
		if err := jr.restoreStage(js, meta, genDir); err != nil {
			return fmt.Errorf("spe: job resume gen %d: stage %s: %w", meta.Gen, js.name, err)
		}
	}
	return nil
}

// restoreStage rebuilds one stage from its cuts in genDir. Its committed
// worker count is StagePars[si]. At the same count, workers restore
// worker for worker; at another, every committed cut is rerouted by key
// into the new workers, each cut's operator snapshot is decoded against
// the identities the reroute enumerated, and the decoded states are
// regrouped onto the workers.
func (jr *jobRun) restoreStage(js *jobStage, meta JobMeta, genDir string) error {
	if js.si >= len(meta.StagePars) || meta.StagePars[js.si] < 1 {
		return fmt.Errorf("no committed parallelism in the key-range manifest %v", meta.StagePars)
	}
	committed := int(meta.StagePars[js.si])
	// cut locates one expected cut. A missing one is a pipeline whose
	// stage shape changed since the commit, or a lost directory — not
	// rot, so the error must not read as ErrCheckpointInvalid, which
	// would quarantine the generation.
	cut := func(w int) (string, error) {
		dir := filepath.Join(genDir, cutDirName(js.si, w))
		if _, err := jr.fsys.ReadDir(dir); err != nil {
			return "", fmt.Errorf("committed cut %s is missing: %v", dir, err)
		}
		return dir, nil
	}
	if committed == js.par {
		for w, op := range js.ops {
			dir, err := cut(w)
			if err != nil {
				return err
			}
			if err := jr.restoreCut(op, dir, js.join); err != nil {
				return err
			}
		}
		return nil
	}
	backends := make([]statebackend.Backend, js.par)
	for w := range backends {
		backends[w] = js.ops[w].Backend()
	}
	owner := func(k []byte) int { return routeKey(k, js.par) }
	ins := make([]opSnapshotter, 0, committed)
	for ow := 0; ow < committed; ow++ {
		dir, err := cut(ow)
		if err != nil {
			return err
		}
		snap, ids, err := jr.rerouteCut(dir, backends, owner, js.join, js.ops[0].claimsIdentities())
		if err == nil {
			in := emptyOpState(js.join)
			if err = in.restoreState(snap, ids); err == nil {
				ins = append(ins, in)
			}
		}
		if err != nil {
			return fmt.Errorf("rescale %d->%d: cut %s: %w", committed, js.par, dir, err)
		}
	}
	for w, out := range regroup(ins, js.par, func(k string) int { return owner([]byte(k)) }, js.join) {
		js.ops[w].adopt(out)
	}
	return nil
}

// restoreCut restores the cut in dir into op's backend, which must be
// empty, and op's control state from the snapshot the cut carries,
// decoded against the identities the restored store lists when op
// claims them. A backend that can checkpoint but not list its identities
// is refilled through the scratch store, which can: the reroute a
// rescale runs, onto this one worker.
func (jr *jobRun) restoreCut(op opSnapshotter, dir string, join bool) error {
	b := op.Backend()
	var snap []byte
	var ids []core.Identity
	var err error
	if l, ok := statebackend.AsIdentityLister(b); ok || !op.claimsIdentities() {
		cp, _ := statebackend.AsCheckpointer(b)
		if snap, err = cp.RestoreMeta(dir); err == nil && op.claimsIdentities() {
			ids, err = l.Identities()
		}
	} else {
		snap, ids, err = jr.rerouteCut(dir, []statebackend.Backend{b}, func([]byte) int { return 0 }, join, true)
	}
	if err != nil {
		return err
	}
	return op.restoreState(snap, ids)
}

// appendSegment sorts the inter-barrier sink segment canonically by
// (TS, Key, Value) and appends it to the ledger as one block. The sort is
// what makes ledger bytes independent of worker interleaving: the
// segment's record set is deterministic (barriers land at fixed source
// positions and triggers fire at fixed watermarks), only its arrival
// order is not.
func (jr *jobRun) appendSegment() error {
	seg := jr.segment
	jr.segment = jr.segment[:0]
	if len(seg) == 0 {
		return nil
	}
	sort.Slice(seg, func(i, k int) bool {
		if seg[i].TS != seg[k].TS {
			return seg[i].TS < seg[k].TS
		}
		if c := bytes.Compare(seg[i].Key, seg[k].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(seg[i].Value, seg[k].Value) < 0
	})
	frame, err := jr.blocks.encode(seg)
	if err != nil {
		return fmt.Errorf("spe: job ledger: %w", err)
	}
	if _, err := jr.lf.Write(frame); err != nil {
		return fmt.Errorf("spe: job ledger: %w", err)
	}
	if err := jr.lf.Sync(); err != nil {
		return fmt.Errorf("spe: job ledger: %w", err)
	}
	jr.ledger += int64(len(frame))
	return nil
}

// The sink ledger is a run of blocks, one per commit that produced
// results: a binio frame (one CRC for the whole commit) whose payload is
// a binio column payload of the block's records, one row a record. The
// records are in the commit's canonical (TS, Key, Value) order, and the
// results of one window firing share a timestamp and come in key order,
// so a column of TS deltas is mostly zeros and a sorted key keeps only
// the bytes in which it differs from the one before it. The six columns:
//
//	ts      per record its TS minus the previous record's (the first
//	        one's minus zero), as the uvarint of the 64-bit difference
//	shared  per record the length of the longest prefix its key shares
//	        with the previous record's key (0 for the first)
//	sufLen  per record the length of the rest of its key
//	suffix  the rest of every key
//	valLen  per record the length of its value
//	value   every value
//
// A block is a pure function of its record set within one build — the
// deflate writer is reset for every block — which is what keeps resumed,
// rescaled and migrated ledgers byte-identical to an uninterrupted run's.
// The decoder accepts only what the encoder writes for records in
// canonical order, deflated by any coder: blocks an older build deflated
// whole at flate.BestSpeed inflate to the same columns.

// The columns of a ledger block, in the order they are written.
const (
	colTS     = iota
	colShared // the key's three columns
	_
	_
	colValLen
	colValue
	ledgerColumns
)

// ledgerEncoder builds framed ledger blocks in buffers it reuses.
type ledgerEncoder struct {
	cols  binio.ColumnWriter
	block []byte // the frame: header room, then the deflated block
}

// encode returns the framed ledger block holding recs, which must be in
// canonical order, valid until the next call.
func (e *ledgerEncoder) encode(recs []SinkRecord) ([]byte, error) {
	w := &e.cols
	w.Reset(ledgerColumns)
	var prevTS int64
	for _, r := range recs {
		w.Uvarint(colTS, uint64(r.TS-prevTS))
		w.Key(colShared, r.Key)
		w.Uvarint(colValLen, uint64(len(r.Value)))
		w.Bytes(colValue, r.Value)
		prevTS = r.TS
	}
	block, err := w.Encode(slices.Grow(e.block[:0], binio.FrameHeadroom)[:binio.FrameHeadroom], len(recs), binio.Deflate)
	if err != nil {
		return nil, err
	}
	e.block = block
	return binio.SealFrame(block), nil
}

// decodeLedgerBlock decodes the ledger block at the front of b, handing fn
// its records in order (key and value alias memory the decoder does not
// reuse), and returns the bytes the block took. Anything but a whole block
// the encoder would write — a frame that fails its CRC or ends early, a
// payload the column codec rejects, records out of canonical order — is
// a *binio.FrameError.
func decodeLedgerBlock(b []byte, fn func(ts int64, key, value []byte)) (int, error) {
	p, n, err := binio.ReadRecord(b)
	if errors.Is(err, binio.ErrShortBuffer) {
		return 0, &binio.FrameError{Reason: "ledger ends mid-block"}
	}
	if err != nil {
		return 0, err
	}
	if n != len(p)+binio.RecordOverhead(len(p)) {
		return 0, &binio.FrameError{Reason: "padded ledger block length"}
	}
	r, err := binio.ReadColumns(nil, p, ledgerColumns, binio.MaxInflated)
	if err != nil {
		return 0, fmt.Errorf("ledger block: %w", err)
	}
	var keys []byte
	var ts int64
	var value []byte
	for i := uint64(0); i < r.Rows() && r.Err() == nil; i++ {
		delta := r.Uvarint(colTS)
		k, cmp := r.Key(colShared)
		v := r.Bytes(colValue, r.Uvarint(colValLen))
		next := ts + int64(delta)
		if r.Err() != nil {
			break
		}
		if i > 0 && (delta >= 1<<63 || next < ts || next == ts && (cmp < 0 || cmp == 0 && bytes.Compare(v, value) < 0)) {
			return 0, &binio.FrameError{Reason: fmt.Sprintf("ledger block: record %d out of (TS, Key, Value) order", i)}
		}
		start := len(keys)
		keys = append(keys, k...)
		fn(next, keys[start:len(keys):len(keys)], v)
		ts, value = next, v
	}
	if err := r.Finish(); err != nil {
		return 0, fmt.Errorf("ledger block: %w", err)
	}
	return n, nil
}

// decodeLedger decodes the committed prefix of dir's ledger — the
// LedgerLen bytes meta commits — block by block, handing fn every record
// in order. A prefix that does not decode completely is an error wrapping
// a *binio.FrameError.
func decodeLedger(fsys faultfs.FS, dir string, meta JobMeta, fn func(ts int64, key, value []byte)) error {
	b, err := fsys.ReadFile(filepath.Join(dir, ledgerName))
	if errors.Is(err, fs.ErrNotExist) {
		b, err = nil, nil
	}
	if err != nil {
		return fmt.Errorf("spe: read ledger: %w", err)
	}
	if meta.LedgerLen > int64(len(b)) {
		return fmt.Errorf("spe: read ledger: %w", &binio.FrameError{
			Reason: fmt.Sprintf("ledger is %d bytes, JOB commits %d", len(b), meta.LedgerLen)})
	}
	for off := int64(0); off < meta.LedgerLen; {
		n, err := decodeLedgerBlock(b[off:meta.LedgerLen], fn)
		if err != nil {
			return fmt.Errorf("spe: read ledger: block at offset %d: %w", off, err)
		}
		off += int64(n)
	}
	return nil
}

// clearGens removes stale generation directories, keeping the newest
// retain committed generations ending at keep (keep -1 removes all).
// Anything newer than keep is uncommitted debris and always goes.
// Quarantined generations are skipped either way: they are preserved
// evidence of detected rot, never restored from and never silently
// reclaimed.
func clearGens(fsys faultfs.FS, dir string, keep, retain int64) error {
	if retain < 1 {
		retain = 1
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("spe: job: scan generations: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, genPrefix) {
			continue
		}
		if keep >= 0 {
			var n int64
			if _, serr := fmt.Sscanf(strings.TrimPrefix(name, genPrefix), "%d", &n); serr == nil &&
				name == GenDirName(n) && n <= keep && n > keep-retain {
				continue // inside the retained window
			}
		}
		path := filepath.Join(dir, name)
		if e.IsDir() && core.IsQuarantined(fsys, path) {
			continue
		}
		if err := fsys.RemoveAll(path); err != nil {
			return fmt.Errorf("spe: job: clear stale generation: %w", err)
		}
	}
	return nil
}

// openLedger truncates the ledger to the committed length (discarding
// any uncommitted suffix) and returns a handle positioned for appends.
func openLedger(fsys faultfs.FS, dir string, commitLen int64) (faultfs.File, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, ledgerName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("spe: job ledger: %w", err)
	}
	if err := f.Truncate(commitLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("spe: job ledger: truncate to committed length: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("spe: job ledger: %w", err)
	}
	if _, err := f.Seek(commitLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("spe: job ledger: %w", err)
	}
	return f, nil
}

func encodeJobMeta(m JobMeta) []byte {
	p := []byte(jobMetaMagic)
	p = binio.PutVarint(p, m.Gen)
	var fin int64
	if m.Final {
		fin = 1
	}
	p = binio.PutVarint(p, fin)
	p = binio.PutVarint(p, m.Offset)
	p = binio.PutVarint(p, m.TuplesIn)
	p = binio.PutVarint(p, m.MaxTS)
	p = binio.PutVarint(p, m.SinceWM)
	p = binio.PutVarint(p, m.LedgerLen)
	p = binio.PutUvarint(p, uint64(len(m.StagePars)))
	for _, sp := range m.StagePars {
		p = binio.PutVarint(p, sp)
	}
	p = binio.PutUvarint(p, uint64(len(m.Routing)))
	for _, rt := range m.Routing {
		p = binio.PutUvarint(p, uint64(len(rt)))
		for _, w := range rt {
			p = binio.PutVarint(p, w)
		}
	}
	return binio.AppendRecord(nil, p)
}

func decodeJobMeta(b []byte) (JobMeta, error) {
	payload, _, err := binio.ReadRecord(b)
	if err != nil {
		return JobMeta{}, fmt.Errorf("spe: corrupt JOB file: %w", err)
	}
	d := snapDecoder{b: payload}
	if d.magic(jobMetaMagic) != nil {
		return JobMeta{}, fmt.Errorf("spe: not a JOB file (bad magic)")
	}
	var m JobMeta
	m.Gen = d.varint()
	m.Final = d.varint() != 0
	m.Offset = d.varint()
	m.TuplesIn = d.varint()
	m.MaxTS = d.varint()
	m.SinceWM = d.varint()
	m.LedgerLen = d.varint()
	n := d.uvarint()
	if n > maxDecodedCount {
		return JobMeta{}, fmt.Errorf("spe: corrupt JOB file: %d stages", n)
	}
	for i := uint64(0); i < n; i++ {
		m.StagePars = append(m.StagePars, d.varint())
	}
	n = d.uvarint()
	if n > maxDecodedCount {
		return JobMeta{}, fmt.Errorf("spe: corrupt JOB file: %d routing tables", n)
	}
	for i := uint64(0); i < n; i++ {
		rn := d.uvarint()
		if rn > maxDecodedCount {
			return JobMeta{}, fmt.Errorf("spe: corrupt JOB file: %d routing entries", rn)
		}
		var rt []int64
		for k := uint64(0); k < rn; k++ {
			rt = append(rt, d.varint())
		}
		m.Routing = append(m.Routing, rt)
	}
	if d.err != nil {
		return JobMeta{}, fmt.Errorf("spe: corrupt JOB file: %w", d.err)
	}
	if err := m.validRouting(); err != nil {
		return JobMeta{}, err
	}
	return m, nil
}

// validRouting rejects routing tables that name out-of-range workers —
// a corrupt (bit-flipped but CRC-colliding) or hand-edited table must
// fail decode, not index a worker slice out of bounds at dispatch time.
func (m *JobMeta) validRouting() error {
	if len(m.Routing) == 0 {
		return nil
	}
	if len(m.Routing) != len(m.StagePars) {
		return fmt.Errorf("spe: corrupt JOB file: %d routing tables for %d stages", len(m.Routing), len(m.StagePars))
	}
	for si, rt := range m.Routing {
		if len(rt) == 0 {
			continue
		}
		if int64(len(rt)) != m.StagePars[si] {
			return fmt.Errorf("spe: corrupt JOB file: stage %d routing has %d buckets, parallelism %d", si, len(rt), m.StagePars[si])
		}
		for b, w := range rt {
			if w < 0 || w >= m.StagePars[si] {
				return fmt.Errorf("spe: corrupt JOB file: stage %d bucket %d routed to worker %d of %d", si, b, w, m.StagePars[si])
			}
		}
	}
	return nil
}

// ReadJobMeta reads the committed progress record of a job directory.
// A nil fsys uses the real filesystem.
func ReadJobMeta(fsys faultfs.FS, dir string) (JobMeta, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(dir, jobMetaName))
	if err != nil {
		return JobMeta{}, fmt.Errorf("spe: read job meta: %w", err)
	}
	return decodeJobMeta(b)
}

// ReadLedger returns the committed sink results of a job directory: the
// ledger's prefix up to the JOB file's LedgerLen. What lies past it — a
// block a crash left between the ledger's fsync and the JOB rename — was
// never committed and is not returned. A committed prefix that does not
// decode completely is an error wrapping a *binio.FrameError; a directory
// without a JOB file has committed nothing. A nil fsys uses the real
// filesystem.
func ReadLedger(fsys faultfs.FS, dir string) ([]SinkRecord, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	meta, err := ReadJobMeta(fsys, dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []SinkRecord
	err = decodeLedger(fsys, dir, meta, func(ts int64, key, value []byte) {
		out = append(out, SinkRecord{TS: ts, Key: key, Value: value})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadLedgerBytes returns the raw committed sink ledger of a job
// directory, truncated to the length recorded in the JOB file — the byte
// string that is identical between a crashed-and-resumed job and an
// uninterrupted one. A missing ledger reads as empty. A nil fsys uses
// the real filesystem.
func ReadLedgerBytes(fsys faultfs.FS, dir string) ([]byte, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(dir, ledgerName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spe: read ledger: %w", err)
	}
	if meta, err := ReadJobMeta(fsys, dir); err == nil && meta.LedgerLen < int64(len(b)) {
		b = b[:meta.LedgerLen]
	}
	return b, nil
}

// ListGenerations returns the checkpoint generation numbers present in a
// job directory, ascending: the RetainGenerations newest committed ones
// (the committed tip and its fallbacks), quarantined ones kept as
// evidence, and at most one uncommitted in-flight generation above the
// tip, which the next Resume removes. A nil fsys uses the real
// filesystem.
func ListGenerations(fsys faultfs.FS, dir string) ([]int64, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	ents, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spe: job: scan generations: %w", err)
	}
	var gens []int64
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, genPrefix) {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(strings.TrimPrefix(name, genPrefix), "%d", &n); err != nil {
			continue
		}
		gens = append(gens, n)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}
