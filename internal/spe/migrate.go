package spe

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/statebackend"
)

// Live key-range migration. A running job can hand one hash bucket of a
// private stateful stage from its current owner to another worker
// without stopping the stream — the mechanism an autoscaler needs to
// chase load instead of waiting for a restart (see DESIGN.md §15).
//
// The protocol is two-phase, and every phase boundary is durable:
//
//   PREPARE (concurrent with the stream): the source worker's committed
//   checkpoint is cloned into a per-migration staging directory via its
//   CUT — sealed segments arrive as hard links, so the
//   transfer cost tracks the moved worker's file count, not the job's
//   state size — and the staged clone is CRC-verified, which doubles as
//   a destination-media probe. Any failure here aborts: the journal
//   records it, the staging area is removed, and the job never noticed.
//
//   COMMIT (under an aligned barrier, every worker parked): the live
//   source store is sealed with one cut against the staged
//   base, a rollback cut of the destination is taken, then the moved
//   bucket's state is split out — store entries re-appended into the
//   destination's live store, the rest rebuilt into a fresh source
//   store, operator control state split and merged in memory by regroup —
//   and the in-memory routing table flips. The JOB v3 rename of the very
//   next checkpoint persists the flipped table and is the migration's
//   single commit point: a crash at any earlier instant resumes from
//   the previous generation with the source still owning the bucket
//   (automatic abort), a crash after it resumes with the destination
//   owning it. Nothing in between is observable.
//
//   ABORT: any COMMIT-phase failure before the flip rolls the two
//   workers back from their cuts (the source store is rebuilt
//   bit-equivalently from the sealed cut, the destination from its
//   rollback cut) and the job keeps running with ownership unchanged.
//
// The journal (MIGRATIONS, atomic-rename replaced) records every
// attempt; resume reconciles in-flight records against the committed
// routing table — flipped means committed, anything else aborts — and
// clears staging debris, so the protocol is idempotent under crashes at
// every step.

// Migration schedules one live key-range handoff inside a Job: hash
// bucket Bucket of stage Stage moves from its current owner to worker
// To, starting at the first checkpoint after the source has passed
// AfterOffset. A migration whose bucket already lives on To is a no-op;
// a failed attempt is not retried within the run but is re-attempted by
// a later Resume (the routing table still shows it pending).
type Migration struct {
	// Stage is the pipeline stage index; it must name a stateful stage
	// (window or join, not Map).
	Stage int
	// Bucket is the hash bucket to move: the keys with
	// routeKey(key, par) == Bucket.
	Bucket int
	// To is the destination worker index.
	To int
	// AfterOffset delays the handoff until the source offset reaches it;
	// 0 starts at the first eligible checkpoint.
	AfterOffset int64
}

// Migration journal file names and framing inside Job.Dir.
const (
	// MigJournalName is the migration journal file in a job directory.
	MigJournalName  = "MIGRATIONS"
	migJournalMagic = "flowkv-mig1\n"
	migDirPrefix    = "mig-"
)

// Migration record states, in protocol order.
const (
	// MigStatePreparing: staging clone in flight; aborts on resume.
	MigStatePreparing = "preparing"
	// MigStatePrepared: staged clone verified; the handoff commits with
	// the next JOB rename or not at all.
	MigStatePrepared = "prepared"
	// MigStateCommitted: the routing flip is durable.
	MigStateCommitted = "committed"
	// MigStateAborted: the source kept the bucket; Detail says why.
	MigStateAborted = "aborted"
)

// MigrationRecord is one journaled migration attempt.
type MigrationRecord struct {
	// Seq is the attempt's unique sequence number; its staging directory
	// is mig-<Seq> under the job dir.
	Seq int64
	// Stage, Bucket, From and To identify the handoff.
	Stage, Bucket, From, To int
	// BaseGen is the committed generation the staged clone was taken of.
	BaseGen int64
	// State is the protocol state (MigState* constants).
	State string
	// Detail carries the abort reason, if any.
	Detail string
}

func migDir(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d", migDirPrefix, seq))
}

func encodeMigrationJournal(recs []MigrationRecord) []byte {
	p := []byte(migJournalMagic)
	p = binio.PutUvarint(p, uint64(len(recs)))
	for _, r := range recs {
		p = binio.PutVarint(p, r.Seq)
		p = binio.PutVarint(p, int64(r.Stage))
		p = binio.PutVarint(p, int64(r.Bucket))
		p = binio.PutVarint(p, int64(r.From))
		p = binio.PutVarint(p, int64(r.To))
		p = binio.PutVarint(p, r.BaseGen)
		p = binio.PutString(p, r.State)
		p = binio.PutString(p, r.Detail)
	}
	return binio.AppendRecord(nil, p)
}

func decodeMigrationJournal(b []byte) ([]MigrationRecord, error) {
	payload, _, err := binio.ReadRecord(b)
	if err != nil {
		return nil, fmt.Errorf("spe: corrupt migration journal: %w", err)
	}
	d := snapDecoder{b: payload}
	if err := d.magic(migJournalMagic); err != nil {
		return nil, fmt.Errorf("spe: not a migration journal (bad magic)")
	}
	n := d.uvarint()
	if n > maxDecodedCount {
		return nil, fmt.Errorf("spe: corrupt migration journal: %d records", n)
	}
	recs := make([]MigrationRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var r MigrationRecord
		r.Seq = d.varint()
		r.Stage = int(d.varint())
		r.Bucket = int(d.varint())
		r.From = int(d.varint())
		r.To = int(d.varint())
		r.BaseGen = d.varint()
		r.State = d.str()
		r.Detail = d.str()
		if d.err != nil {
			break
		}
		if r.Stage < 0 || r.Bucket < 0 || r.From < 0 || r.To < 0 || r.Seq < 0 {
			return nil, fmt.Errorf("spe: corrupt migration journal: negative field in record %d", i)
		}
		switch r.State {
		case MigStatePreparing, MigStatePrepared, MigStateCommitted, MigStateAborted:
		default:
			return nil, fmt.Errorf("spe: corrupt migration journal: unknown state %q", r.State)
		}
		recs = append(recs, r)
	}
	if d.err != nil {
		return nil, fmt.Errorf("spe: corrupt migration journal: %w", d.err)
	}
	return recs, nil
}

// ReadMigrationJournal reads a job directory's migration journal. A
// missing journal reads as empty; a nil fsys uses the real filesystem.
func ReadMigrationJournal(fsys faultfs.FS, dir string) ([]MigrationRecord, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(dir, MigJournalName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spe: read migration journal: %w", err)
	}
	return decodeMigrationJournal(b)
}

// writeMigJournal durably replaces the journal with the same atomic
// small-file write as the JOB file, so a crash leaves either the old
// journal or the new.
func (jr *jobRun) writeMigJournal() error {
	path := filepath.Join(jr.j.Dir, MigJournalName)
	if err := faultfs.WriteFileAtomic(jr.fsys, path, encodeMigrationJournal(jr.migs)); err != nil {
		return fmt.Errorf("spe: migration journal: %w", err)
	}
	return nil
}

// migRun is one in-flight migration attempt.
type migRun struct {
	idx     int // index into Job.Migrations
	rec     MigrationRecord
	js      *jobStage
	dir     string // staging directory (mig-<Seq>)
	done    chan struct{}
	prepErr error
	clone   core.CloneResult
	flipped bool
}

func (jr *jobRun) stageBySI(si int) *jobStage {
	for _, js := range jr.stages {
		if js.si == si {
			return js
		}
	}
	return nil
}

// bucketOwner resolves a bucket's current owner through the stage's
// live routing table.
func (jr *jobRun) bucketOwner(si, bucket int) int {
	rt := jr.r.rts[si]
	if rt.route != nil {
		return rt.route[bucket]
	}
	return bucket
}

// validateMigrations rejects plans that name a stage or worker the
// pipeline does not have.
func (jr *jobRun) validateMigrations() error {
	for i, mg := range jr.j.Migrations {
		js := jr.stageBySI(mg.Stage)
		if js == nil {
			return fmt.Errorf("spe: migration %d: stage %d is not a stateful stage", i, mg.Stage)
		}
		if mg.Bucket < 0 || mg.Bucket >= js.par {
			return fmt.Errorf("spe: migration %d: bucket %d out of range (parallelism %d)", i, mg.Bucket, js.par)
		}
		if mg.To < 0 || mg.To >= js.par {
			return fmt.Errorf("spe: migration %d: destination worker %d out of range (parallelism %d)", i, mg.To, js.par)
		}
	}
	return nil
}

// maybeStartPrepare starts the next eligible migration's PREPARE phase.
// Called after each committed checkpoint: the clone needs a committed
// generation to stage from, and runs concurrently with the next batch's
// ingestion — untouched ranges keep flowing while segments link over.
func (jr *jobRun) maybeStartPrepare() error {
	if jr.inflight != nil || jr.gen < 1 || len(jr.j.Migrations) == 0 {
		return nil
	}
	off := jr.j.Source.Offset()
	for i, mg := range jr.j.Migrations {
		if jr.migTried[i] {
			continue
		}
		js := jr.stageBySI(mg.Stage)
		from := jr.bucketOwner(js.si, mg.Bucket)
		if from == mg.To {
			if jr.migTried == nil {
				jr.migTried = make(map[int]bool)
			}
			jr.migTried[i] = true // already owned: nothing to do
			continue
		}
		if off < mg.AfterOffset {
			continue
		}
		return jr.startPrepare(i, mg, js, from)
	}
	return nil
}

func (jr *jobRun) startPrepare(idx int, mg Migration, js *jobStage, from int) error {
	seq := int64(1)
	for _, r := range jr.migs {
		if r.Seq >= seq {
			seq = r.Seq + 1
		}
	}
	m := &migRun{
		idx: idx,
		js:  js,
		rec: MigrationRecord{
			Seq: seq, Stage: js.si, Bucket: mg.Bucket, From: from, To: mg.To,
			BaseGen: jr.gen, State: MigStatePreparing,
		},
		dir:  migDir(jr.j.Dir, seq),
		done: make(chan struct{}),
	}
	if jr.migTried == nil {
		jr.migTried = make(map[int]bool)
	}
	jr.migTried[idx] = true
	jr.migs = append(jr.migs, m.rec)
	if err := jr.writeMigJournal(); err != nil {
		return err
	}
	jr.inflight = m
	go func() {
		defer close(m.done)
		m.prepErr = jr.prepareClone(m)
	}()
	return nil
}

// prepareClone is the PREPARE phase body, run off the coordinator
// goroutine: stage the source worker's committed checkpoint and verify
// it. It only reads the (immutable) committed generation and writes the
// private staging directory, so it is safe alongside live ingestion;
// the coordinator joins it at the next barrier, before the commit that
// would garbage-collect the base generation.
func (jr *jobRun) prepareClone(m *migRun) error {
	src := filepath.Join(jr.j.Dir, GenDirName(m.rec.BaseGen), cutDirName(m.rec.Stage, m.rec.From))
	base := filepath.Join(m.dir, "base")
	res, err := core.CloneCheckpointDir(jr.fsys, src, base)
	if err != nil {
		return err
	}
	m.clone = res
	if _, _, err := core.VerifyCheckpointDir(jr.fsys, base); err != nil {
		return fmt.Errorf("staged clone failed verification: %w", err)
	}
	return nil
}

// migrateBarrier drives the in-flight migration at an aligned barrier:
// join the PREPARE phase, then either abort (journaled, staging
// removed, job unaffected) or run the COMMIT phase while every worker
// is parked. A nil return with jr.inflight still set means the handoff
// is done in memory and the caller's next commit persists it.
func (jr *jobRun) migrateBarrier() error {
	m := jr.inflight
	if m == nil {
		return nil
	}
	<-m.done
	if m.prepErr != nil {
		// A destination fault during transfer degrades to abort: the
		// source keeps serving the range and the run continues.
		return jr.abortMigration(m, fmt.Errorf("prepare: %w", m.prepErr))
	}
	if err := jr.setMigState(m, MigStatePrepared, ""); err != nil {
		return jr.abortMigration(m, fmt.Errorf("journal prepared: %w", err))
	}
	return jr.migrateCommit(m)
}

// migrateCommit is the COMMIT phase, under the barrier. Failures before
// any live state mutates abort cleanly; failures after roll both
// workers back from their cuts; a rollback failure is fatal to the run
// (which stays resumable from the committed generation — resuming IS
// the rollback).
func (jr *jobRun) migrateCommit(m *migRun) error {
	js := m.js
	rt := jr.r.rts[js.si]
	s, d, bucket := m.rec.From, m.rec.To, m.rec.Bucket

	// Split owner: output 1 is the moved bucket, output 0 what stays.
	moved := func(k []byte) int {
		if routeKey(k, js.par) == bucket {
			return 1
		}
		return 0
	}

	// Seal the source: one cut of the live store against the staged base
	// (same files, so unchanged ones link from it), carrying the operator
	// snapshot taken at this barrier.
	cutDir := filepath.Join(m.dir, "cut")
	if err := snapshotTo(js.ops[s].Backend(), cutDir, filepath.Join(m.dir, "base"), js.ops[s].snapshotState()); err != nil {
		return jr.abortMigration(m, fmt.Errorf("seal source: %w", err))
	}
	// Rollback cut of the destination, priced against its committed
	// generation — ABORT rebuilds the destination from it if the import
	// dies halfway.
	dcutDir := filepath.Join(m.dir, "dcut")
	dParent := filepath.Join(jr.j.Dir, GenDirName(jr.gen), cutDirName(js.si, d))
	if err := snapshotTo(js.ops[d].Backend(), dcutDir, dParent, js.ops[d].snapshotState()); err != nil {
		return jr.abortMigration(m, fmt.Errorf("destination rollback cut: %w", err))
	}

	// Live state mutates from here on.
	jr.stopHeal(js, s)
	newS, err := jr.reopenWorker(js, s)
	if err != nil {
		return jr.rollbackMigration(m, nil, err)
	}
	if _, _, err := jr.rerouteCut(cutDir, []statebackend.Backend{newS, js.ops[d].Backend()}, moved, js.join, false); err != nil {
		return jr.rollbackMigration(m, newS, fmt.Errorf("import moved range: %w", err))
	}
	if err := swapWorkerBackend(js, s, newS); err != nil {
		return jr.rollbackMigration(m, newS, err)
	}
	// The parked operators' control state splits and merges in memory,
	// as the stores' state just did.
	split := regroup([]opSnapshotter{js.ops[s]}, 2, func(k string) int { return moved([]byte(k)) }, js.join)
	merged := regroup([]opSnapshotter{js.ops[d], split[1]}, 1, func(string) int { return 0 }, js.join)
	js.ops[s].adopt(split[0])
	js.ops[d].adopt(merged[0])
	jr.startHeal(js, s)
	// Flip routing in memory. The JOB rename of the commit that follows
	// this barrier persists the flipped table — the single commit point.
	if rt.route == nil {
		rt.route = make([]int, rt.par)
		for b := range rt.route {
			rt.route[b] = b
		}
	}
	rt.route[bucket] = d
	m.flipped = true
	return nil
}

// reopenWorker destroys one worker's live store and reopens it empty
// (the job's NewBackend wrapper already clears stale state on open).
func (jr *jobRun) reopenWorker(js *jobStage, w int) (statebackend.Backend, error) {
	if err := js.ops[w].Backend().Destroy(); err != nil {
		return nil, fmt.Errorf("spe: migration: clear worker %d store: %w", w, err)
	}
	b, err := jr.r.rts[js.si].stage.NewBackend(w)
	if err != nil {
		return nil, fmt.Errorf("spe: migration: reopen worker %d store: %w", w, err)
	}
	return b, nil
}

// swapWorkerBackend installs a replacement backend for one parked
// worker: the operator's backend is the one record of it.
func swapWorkerBackend(js *jobStage, w int, b statebackend.Backend) error {
	if _, ok := statebackend.AsDeltaCheckpointer(b); !ok {
		return fmt.Errorf("spe: migration: backend %s lost checkpoint support", b.Name())
	}
	js.ops[w].setBackend(b)
	return nil
}

// rollbackMigration is ABORT after live state began mutating: both
// workers are rebuilt from the cuts taken at this same barrier, so the
// job continues exactly as if the handoff was never attempted. If the
// rollback itself fails the run ends with an error — the committed
// generation is untouched, so Resume recovers (and reconciles the
// journal to aborted).
func (jr *jobRun) rollbackMigration(m *migRun, newS statebackend.Backend, cause error) error {
	js := m.js
	s, d := m.rec.From, m.rec.To
	fatal := func(step string, err error) error {
		return fmt.Errorf("spe: migration %d: %v; rollback failed at %s: %w", m.rec.Seq, cause, step, err)
	}
	// rebuild installs b, an empty store, as worker w's and restores it —
	// store and operator — from cut, taken at this barrier.
	rebuild := func(w int, b statebackend.Backend, cut string) error {
		if err := swapWorkerBackend(js, w, b); err != nil {
			return err
		}
		return jr.restoreCut(js.ops[w], filepath.Join(m.dir, cut), js.join)
	}
	// Source: fresh store restored from the sealed cut.
	if newS != nil {
		if err := newS.Destroy(); err != nil {
			return fatal("clear partial source rebuild", err)
		}
	}
	b, err := jr.r.rts[js.si].stage.NewBackend(s)
	if err != nil {
		return fatal("reopen source store", err)
	}
	if err := rebuild(s, b, "cut"); err != nil {
		return fatal("restore source from cut", err)
	}
	// Destination: the import may have landed a partial range; rebuild
	// from the rollback cut.
	jr.stopHeal(js, d)
	bd, err := jr.reopenWorker(js, d)
	if err != nil {
		return fatal("reopen destination store", err)
	}
	if err := rebuild(d, bd, "dcut"); err != nil {
		return fatal("restore destination from cut", err)
	}
	jr.startHeal(js, s)
	jr.startHeal(js, d)
	return jr.abortMigration(m, cause)
}

// abortMigration finalizes a failed attempt: journal the abort, remove
// the staging area. An error here ends the run (the journal or job dir
// is unwritable — the same media the next commit needs anyway).
func (jr *jobRun) abortMigration(m *migRun, cause error) error {
	jr.inflight = nil
	if err := jr.setMigState(m, MigStateAborted, cause.Error()); err != nil {
		return fmt.Errorf("spe: migration %d abort: %w", m.rec.Seq, err)
	}
	if err := jr.fsys.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("spe: migration %d abort: clear staging: %w", m.rec.Seq, err)
	}
	return nil
}

// finishMigration runs after the commit that carried a flipped routing
// table landed: the handoff is durable, so journal it and drop the
// staging area (the source range's files are gone with the old store —
// the "source range GC" half of COMMIT happened when the commit wrote
// the rebuilt source checkpoint and clearGens dropped the old
// generation).
func (jr *jobRun) finishMigration() error {
	m := jr.inflight
	if m == nil || !m.flipped {
		return nil
	}
	jr.inflight = nil
	if err := jr.setMigState(m, MigStateCommitted, ""); err != nil {
		return fmt.Errorf("spe: migration %d: journal committed: %w", m.rec.Seq, err)
	}
	if err := jr.fsys.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("spe: migration %d: clear staging: %w", m.rec.Seq, err)
	}
	return nil
}

// abandonInflight aborts an attempt the run is ending before it could
// commit (graceful end of stream between PREPARE and the next barrier).
func (jr *jobRun) abandonInflight() error {
	m := jr.inflight
	if m == nil || m.flipped {
		return nil
	}
	<-m.done
	return jr.abortMigration(m, errors.New("job ended before handoff"))
}

// setMigState updates one journal record and durably rewrites the
// journal.
func (jr *jobRun) setMigState(m *migRun, state, detail string) error {
	for i := range jr.migs {
		if jr.migs[i].Seq == m.rec.Seq {
			jr.migs[i].State = state
			jr.migs[i].Detail = detail
		}
	}
	m.rec.State = state
	return jr.writeMigJournal()
}

// reconcileMigrations resolves in-flight journal records on resume
// against the committed routing table: a record whose bucket the table
// routes to its destination committed (the JOB rename landed); anything
// else aborted — the state the job resumes from predates the handoff,
// so resuming is the rollback. Staging debris is cleared either way.
func (jr *jobRun) reconcileMigrations(meta JobMeta) error {
	recs, err := ReadMigrationJournal(jr.fsys, jr.j.Dir)
	if err != nil {
		return err
	}
	jr.migs = recs
	changed := false
	for i := range jr.migs {
		rec := &jr.migs[i]
		if rec.State == MigStatePreparing || rec.State == MigStatePrepared {
			if migrationCommittedIn(meta, *rec) {
				rec.State = MigStateCommitted
				rec.Detail = "resolved committed on resume"
			} else {
				rec.State = MigStateAborted
				rec.Detail = "rolled back on resume"
			}
			changed = true
		}
		if err := jr.fsys.RemoveAll(migDir(jr.j.Dir, rec.Seq)); err != nil {
			return fmt.Errorf("spe: migration %d: clear staging: %w", rec.Seq, err)
		}
	}
	if err := jr.fsys.RemoveAll(filepath.Join(jr.j.Dir, scratchName)); err != nil {
		return fmt.Errorf("spe: migration: clear scratch: %w", err)
	}
	if changed {
		return jr.writeMigJournal()
	}
	return nil
}

// migrationCommittedIn reports whether a record's routing flip is
// present in a committed JobMeta. The pre-flip owner is never To (a
// migration only starts when they differ), so table[bucket] == To is
// exactly "the flip committed".
func migrationCommittedIn(meta JobMeta, rec MigrationRecord) bool {
	if rec.Stage >= len(meta.StagePars) || int64(rec.Bucket) >= meta.StagePars[rec.Stage] {
		return false
	}
	owner := rec.Bucket
	if rec.Stage < len(meta.Routing) && rec.Bucket < len(meta.Routing[rec.Stage]) {
		owner = int(meta.Routing[rec.Stage][rec.Bucket])
	}
	return owner == rec.To
}

// clearMigrationDebris removes journal, staging and scratch leftovers
// from a job directory (fresh Run over a dir a crashed attempt used).
func (jr *jobRun) clearMigrationDebris() error {
	ents, err := jr.fsys.ReadDir(jr.j.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("spe: migration: scan job dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if name == MigJournalName || name == MigJournalName+".tmp" ||
			name == scratchName || strings.HasPrefix(name, migDirPrefix) {
			if err := jr.fsys.RemoveAll(filepath.Join(jr.j.Dir, name)); err != nil {
				return fmt.Errorf("spe: migration: clear debris: %w", err)
			}
		}
	}
	return nil
}
