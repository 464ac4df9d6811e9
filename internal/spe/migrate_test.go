package spe

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flowkv/internal/faultfs"
)

// migIters returns the iteration count for the randomized migration
// battery. FLOWKV_MIGRATE_ITERS overrides; -short keeps it small.
func migIters(t *testing.T) int {
	if s := os.Getenv("FLOWKV_MIGRATE_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad FLOWKV_MIGRATE_ITERS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 24
}

// routedOwner resolves a bucket's owner through a committed meta's
// routing table (identity when absent).
func routedOwner(meta JobMeta, stage, bucket int) int {
	if stage < len(meta.Routing) && bucket < len(meta.Routing[stage]) {
		return int(meta.Routing[stage][bucket])
	}
	return bucket
}

// requireNoMigDebris asserts a finished job directory holds no staging
// directories, scratch area, or half-written journal.
func requireNoMigDebris(t *testing.T, jobDir string) {
	t.Helper()
	ents, err := os.ReadDir(jobDir)
	if err != nil {
		t.Fatalf("scan job dir: %v", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, migDirPrefix) || name == scratchName || name == MigJournalName+".tmp" {
			t.Fatalf("migration debris left behind: %s", name)
		}
	}
}

// requireTerminalJournal reads the journal and asserts every record
// reached a terminal state (committed or aborted).
func requireTerminalJournal(t *testing.T, jobDir string) []MigrationRecord {
	t.Helper()
	recs, err := ReadMigrationJournal(nil, jobDir)
	if err != nil {
		t.Fatalf("read migration journal: %v", err)
	}
	for _, r := range recs {
		if r.State != MigStateCommitted && r.State != MigStateAborted {
			t.Fatalf("journal record %d left non-terminal: %s", r.Seq, r.State)
		}
	}
	return recs
}

// migSwap is the battery's standing plan: bucket 0 moves to worker 1
// immediately, then bucket 1 moves to worker 0 once the source passes
// offset 300 — the second handoff starts from a non-identity table
// (worker 1 owns both buckets in between) and the final table is a full
// swap, so nothing about identity routing can mask a bug.
func migSwap() []Migration {
	return []Migration{
		{Stage: 1, Bucket: 0, To: 1},
		{Stage: 1, Bucket: 1, To: 0, AfterOffset: 300},
	}
}

// TestJobMigrationGoldenLedger runs both handoffs of the swap plan live
// and requires the committed ledger to be byte-identical to the
// unmigrated golden run — the moved range loses nothing, the untouched
// range notices nothing — and the commit artifacts (JOB v3 routing
// table, journal states, staging cleanup) to be exactly right.
func TestJobMigrationGoldenLedger(t *testing.T) {
	tuples := crashTuples(600)
	const every = 97
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenLedger(t, pat, tuples, every, 1<<10)
			base := t.TempDir()
			job := &Job{
				Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10),
				Source:          NewSliceSource(tuples),
				Dir:             filepath.Join(base, "job"),
				CheckpointEvery: every,
				Migrations:      migSwap(),
			}
			res, err := job.Run()
			if err != nil {
				t.Fatalf("migrated run: %v", err)
			}
			if !res.Final {
				t.Fatal("migrated run did not finish")
			}
			checkLedger(t, job.Dir, golden)

			meta, err := ReadJobMeta(nil, job.Dir)
			if err != nil {
				t.Fatalf("read meta: %v", err)
			}
			if want := []int64{1, 0}; len(meta.Routing) != 2 || !reflect.DeepEqual(meta.Routing[1], want) {
				t.Fatalf("committed routing = %v, want stage-1 table %v", meta.Routing, want)
			}
			recs := requireTerminalJournal(t, job.Dir)
			if len(recs) != 2 {
				t.Fatalf("journal has %d records, want 2: %+v", len(recs), recs)
			}
			wantRecs := []struct{ bucket, from, to int }{{0, 0, 1}, {1, 1, 0}}
			for i, w := range wantRecs {
				r := recs[i]
				if r.State != MigStateCommitted {
					t.Fatalf("record %d state %s, want committed (%q)", r.Seq, r.State, r.Detail)
				}
				if r.Stage != 1 || r.Bucket != w.bucket || r.From != w.from || r.To != w.to {
					t.Fatalf("record %d = %+v, want stage 1 bucket %d %d->%d", r.Seq, r, w.bucket, w.from, w.to)
				}
			}
			requireNoMigDebris(t, job.Dir)
		})
	}
}

// TestJobMigrationIntervalJoin runs the swap plan over an interval-join
// stage: join store keys are side-tagged, so the split must route by the
// user key under the tag or half of each key's state stays behind.
func TestJobMigrationIntervalJoin(t *testing.T) {
	tuples := joinCrashTuples(600)
	const every = 97
	goldenBase := t.TempDir()
	gjob := &Job{
		Pipeline:        joinJobPipeline(filepath.Join(goldenBase, "state"), nil, 1<<10, 2),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(goldenBase, "job"),
		CheckpointEvery: every,
	}
	gres, err := gjob.Run()
	if err != nil || !gres.Final {
		t.Fatalf("golden join run: final=%v err=%v", gres != nil && gres.Final, err)
	}
	golden, err := os.ReadFile(filepath.Join(gjob.Dir, ledgerName))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden join ledger: %d bytes, err=%v", len(golden), err)
	}

	base := t.TempDir()
	job := &Job{
		Pipeline:        joinJobPipeline(filepath.Join(base, "state"), nil, 1<<10, 2),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: every,
		Migrations:      migSwap(),
	}
	res, err := job.Run()
	if err != nil {
		t.Fatalf("migrated join run: %v", err)
	}
	if !res.Final {
		t.Fatal("migrated join run did not finish")
	}
	checkLedger(t, job.Dir, golden)
	meta, err := ReadJobMeta(nil, job.Dir)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	if want := []int64{1, 0}; len(meta.Routing) != 2 || !reflect.DeepEqual(meta.Routing[1], want) {
		t.Fatalf("committed routing = %v, want stage-1 table %v", meta.Routing, want)
	}
	for _, r := range requireTerminalJournal(t, job.Dir) {
		if r.State != MigStateCommitted {
			t.Fatalf("join migration %d ended %s (%q)", r.Seq, r.State, r.Detail)
		}
	}
	requireNoMigDebris(t, job.Dir)
}

// TestJobMigrationCrashPins crashes the filesystem at every protocol
// step — sealing the source cut, hard-linking the staged transfer,
// renaming the flip-carrying JOB file, and both halves of an abort (the
// journal write and the staging GC) — and requires resume to reconcile
// the journal, converge to the golden ledger, and leave the bucket on
// the correct side of the crash.
func TestJobMigrationCrashPins(t *testing.T) {
	tuples := crashTuples(600)
	const every = 97
	legs := []struct {
		name string
		// after delays the handoff; 500 parks it between PREPARE and the
		// barrier that would commit it, so the graceful end of stream
		// aborts it — the only way to pin the abort path deterministically.
		after int64
		rule  faultfs.Rule
		// commits reports whether the resumed job still completes the
		// handoff (an aborted-by-schedule migration never retries: the
		// resume sees no in-loop checkpoint after offset 582).
		commits bool
	}{
		// First rename under the staging dir: the source cut's commit.
		{"mid-seal", 0,
			faultfs.Rule{Op: faultfs.OpRename, PathContains: migDirPrefix, Crash: true}, true},
		// First hard link under the staging dir: the segment transfer.
		{"mid-transfer", 0,
			faultfs.Rule{Op: faultfs.OpLink, PathContains: migDirPrefix, Crash: true}, true},
		// Second JOB rename: the commit whose routing table carries the
		// flip. The crash fires before the rename lands, so the flip must
		// not be durable and resume must roll the handoff back.
		{"mid-flip", 0,
			faultfs.Rule{Op: faultfs.OpRename, PathContains: "JOB", Nth: 2, Crash: true}, true},
		// Second journal rename: the "aborted" record of the end-of-stream
		// abort (the first was "preparing").
		{"mid-abort-journal", 500,
			faultfs.Rule{Op: faultfs.OpRename, PathContains: MigJournalName, Nth: 2, Crash: true}, false},
		// Second staging removal: the abort's staging GC (the first was
		// the clone clearing its target).
		{"mid-abort-gc", 500,
			faultfs.Rule{Op: faultfs.OpRemove, PathContains: migDirPrefix, Nth: 2, Crash: true}, false},
	}
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenLedger(t, pat, tuples, every, 1<<10)
			for _, leg := range legs {
				leg := leg
				t.Run(leg.name, func(t *testing.T) {
					t.Parallel()
					base := t.TempDir()
					inj := faultfs.NewInjector(faultfs.OS)
					src := NewSliceSource(tuples)
					mk := func(kill int64) *Job {
						return &Job{
							Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<10),
							Source:          src,
							Dir:             filepath.Join(base, "job"),
							FS:              inj,
							CheckpointEvery: every,
							Migrations:      []Migration{{Stage: 1, Bucket: 0, To: 1, AfterOffset: leg.after}},
							KillAfterTuples: kill,
						}
					}
					inj.SetRule(leg.rule)
					if _, err := mk(0).Run(); err == nil {
						t.Fatal("run survived a crashed filesystem")
					}
					if !inj.Fired() {
						t.Fatal("crash pin did not fire")
					}
					inj.Reset()
					resumeToFinal(t, mk, golden)

					jobDir := filepath.Join(base, "job")
					recs := requireTerminalJournal(t, jobDir)
					if len(recs) == 0 {
						t.Fatal("no migration was journaled")
					}
					meta, err := ReadJobMeta(inj, jobDir)
					if err != nil {
						t.Fatalf("read meta: %v", err)
					}
					owner := routedOwner(meta, 1, 0)
					if leg.commits {
						if owner != 1 {
							t.Fatalf("bucket 0 owned by %d after resume, want 1 (handoff lost)", owner)
						}
						if last := recs[len(recs)-1]; last.State != MigStateCommitted {
							t.Fatalf("last journal record %s (%q), want committed", last.State, last.Detail)
						}
					} else {
						if owner != 0 {
							t.Fatalf("bucket 0 owned by %d, want 0 (aborted handoff leaked)", owner)
						}
						for _, r := range recs {
							if r.State != MigStateAborted {
								t.Fatalf("record %d is %s, want aborted", r.Seq, r.State)
							}
						}
					}
					requireNoMigDebris(t, jobDir)
				})
			}
		})
	}
}

// TestJobMigrationDestinationFaultAborts fails every file creation under
// the staging directory with a persistent media error — the staged clone
// cannot be verified, exactly as if the destination's disk were bad —
// and requires the job to degrade to a clean abort: the run completes,
// the ledger matches golden, and the source still owns the range.
func TestJobMigrationDestinationFaultAborts(t *testing.T) {
	tuples := crashTuples(600)
	const every = 97
	pat := crashPatterns()[0]
	golden := goldenLedger(t, pat, tuples, every, 1<<10)

	base := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	errMedia := errors.New("destination media error")
	inj.SetRule(faultfs.Rule{
		Op: faultfs.OpCreate, PathContains: migDirPrefix,
		Class: faultfs.ClassPersistent, Err: errMedia,
	})
	job := &Job{
		Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<10),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		FS:              inj,
		CheckpointEvery: every,
		Migrations:      []Migration{{Stage: 1, Bucket: 0, To: 1}},
	}
	res, err := job.Run()
	if err != nil {
		t.Fatalf("run did not degrade to abort: %v", err)
	}
	if !res.Final {
		t.Fatal("run did not finish")
	}
	if !inj.Fired() {
		t.Fatal("destination fault did not fire")
	}
	checkLedger(t, job.Dir, golden)
	recs := requireTerminalJournal(t, job.Dir)
	if len(recs) != 1 || recs[0].State != MigStateAborted {
		t.Fatalf("journal = %+v, want one aborted record", recs)
	}
	if !strings.Contains(recs[0].Detail, "prepare") {
		t.Fatalf("abort detail %q does not blame the prepare phase", recs[0].Detail)
	}
	meta, err := ReadJobMeta(inj, job.Dir)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	if owner := routedOwner(meta, 1, 0); owner != 0 {
		t.Fatalf("bucket 0 owned by %d after aborted handoff, want 0", owner)
	}
	requireNoMigDebris(t, job.Dir)
}

// migBatteryCase is one pipeline shape for the randomized battery.
type migBatteryCase struct {
	name   string
	tuples []Tuple
	pipe   func(base string, fsys faultfs.FS) *Pipeline
}

func migBatteryCases() []migBatteryCase {
	pat := crashPatterns()[0]
	return []migBatteryCase{
		{"AAR", crashTuples(600), func(base string, fsys faultfs.FS) *Pipeline {
			return crashPipeline(pat, filepath.Join(base, "state"), fsys, 1<<10)
		}},
		{"interval-join", joinCrashTuples(600), func(base string, fsys faultfs.FS) *Pipeline {
			return joinJobPipeline(filepath.Join(base, "state"), fsys, 1<<10, 2)
		}},
	}
}

// TestJobMigrationKillResumeExactlyOnce is the randomized migration
// battery: each iteration runs the swap plan and either kills the job
// after a random tuple count or crashes the filesystem at a random
// mutating operation (measured against a full migrated run, so the
// crash point can land anywhere in the protocol), then resumes — with
// more random kills — until final. Every iteration must converge to the
// unmigrated golden ledger, leave the journal terminal and the routing
// table consistent with it, and at least one iteration must complete a
// handoff despite the faults.
func TestJobMigrationKillResumeExactlyOnce(t *testing.T) {
	iters := migIters(t)
	const every = 97
	for _, c := range migBatteryCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			goldenBase := t.TempDir()
			gjob := &Job{
				Pipeline:        c.pipe(goldenBase, nil),
				Source:          NewSliceSource(c.tuples),
				Dir:             filepath.Join(goldenBase, "job"),
				CheckpointEvery: every,
			}
			if res, err := gjob.Run(); err != nil || !res.Final {
				t.Fatalf("golden run: final=%v err=%v", res != nil && res.Final, err)
			}
			golden, err := os.ReadFile(filepath.Join(gjob.Dir, ledgerName))
			if err != nil || len(golden) == 0 {
				t.Fatalf("golden ledger: %d bytes, err=%v", len(golden), err)
			}

			// Measure how many mutating ops one full migrated run performs;
			// random crash points are drawn from that range.
			measBase := t.TempDir()
			measInj := faultfs.NewInjector(faultfs.OS)
			mjob := &Job{
				Pipeline:        c.pipe(measBase, measInj),
				Source:          NewSliceSource(c.tuples),
				Dir:             filepath.Join(measBase, "job"),
				FS:              measInj,
				CheckpointEvery: every,
				Migrations:      migSwap(),
			}
			if res, err := mjob.Run(); err != nil || !res.Final {
				t.Fatalf("measuring run: final=%v err=%v", res != nil && res.Final, err)
			}
			checkLedger(t, mjob.Dir, golden)
			opsTotal := measInj.Ops()
			if opsTotal == 0 {
				t.Fatal("measuring run performed no mutating ops")
			}

			rng := rand.New(rand.NewSource(int64(0x316 + len(c.name)*7919)))
			base := t.TempDir()
			committed := 0
			for i := 0; i < iters; i++ {
				dir := filepath.Join(base, fmt.Sprintf("i%03d", i))
				inj := faultfs.NewInjector(faultfs.OS)
				src := NewSliceSource(c.tuples)
				mk := func(kill int64) *Job {
					return &Job{
						Pipeline:        c.pipe(dir, inj),
						Source:          src,
						Dir:             filepath.Join(dir, "job"),
						FS:              inj,
						CheckpointEvery: every,
						Migrations:      migSwap(),
						KillAfterTuples: kill,
					}
				}
				var kill int64
				if rng.Intn(2) == 0 {
					inj.SetRule(faultfs.Rule{AtOp: 1 + rng.Int63n(opsTotal), Crash: true})
				} else {
					kill = 1 + rng.Int63n(int64(len(c.tuples)))
				}
				res, err := mk(kill).Run()
				for attempts := 0; err != nil; attempts++ {
					if attempts > 40 {
						t.Fatalf("iter %d: not final after %d resumes: %v", i, attempts, err)
					}
					if attempts > 0 && !errors.Is(err, ErrJobKilled) {
						// After the first resume the injector is clean; only
						// deliberate kills may fail a run.
						t.Fatalf("iter %d: unexpected error on resume: %v", i, err)
					}
					inj.Reset()
					kill = 0
					if rng.Intn(3) == 0 {
						kill = 1 + rng.Int63n(int64(len(c.tuples)))
					}
					res, err = runOrResume(mk(kill))
				}
				if !res.Final {
					t.Fatalf("iter %d: job not final", i)
				}
				jobDir := filepath.Join(dir, "job")
				checkLedger(t, jobDir, golden)
				recs := requireTerminalJournal(t, jobDir)
				requireNoMigDebris(t, jobDir)

				// The routing table must agree with the journal: the last
				// committed record per bucket owns it, identity otherwise.
				meta, err := ReadJobMeta(inj, jobDir)
				if err != nil {
					t.Fatalf("iter %d: read meta: %v", i, err)
				}
				want := map[int]int{}
				sawCommit := false
				for _, r := range recs {
					if r.State == MigStateCommitted {
						want[r.Bucket] = r.To
						sawCommit = true
					}
				}
				for b := 0; b < 2; b++ {
					w, ok := want[b]
					if !ok {
						w = b
					}
					if got := routedOwner(meta, 1, b); got != w {
						t.Fatalf("iter %d: bucket %d owned by %d, journal says %d (%+v)", i, b, got, w, recs)
					}
				}
				if sawCommit {
					committed++
				}
			}
			if committed == 0 {
				t.Fatalf("no iteration of %d completed a handoff", iters)
			}
			t.Logf("%s: %d/%d iterations committed at least one handoff", c.name, committed, iters)
		})
	}
}

// TestMigrationJournalRoundTrip covers the journal codec: round trips,
// the empty journal, a missing file, and rejection of truncation, bit
// flips, unknown states and negative fields.
func TestMigrationJournalRoundTrip(t *testing.T) {
	recs := []MigrationRecord{
		{Seq: 1, Stage: 1, Bucket: 0, From: 0, To: 1, BaseGen: 3, State: MigStateCommitted},
		{Seq: 2, Stage: 1, Bucket: 1, From: 1, To: 0, BaseGen: 5, State: MigStateAborted, Detail: "prepare: staged clone failed verification: boom"},
		{Seq: 3, Stage: 2, Bucket: 7, From: 7, To: 2, BaseGen: 9, State: MigStatePreparing},
		{Seq: 4, Stage: 2, Bucket: 3, From: 3, To: 1, BaseGen: 9, State: MigStatePrepared},
	}
	got, err := decodeMigrationJournal(encodeMigrationJournal(recs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: got %+v want %+v", got, recs)
	}
	if got, err := decodeMigrationJournal(encodeMigrationJournal(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty journal: %v %v", got, err)
	}
	if recs, err := ReadMigrationJournal(nil, t.TempDir()); err != nil || recs != nil {
		t.Fatalf("missing journal: %v %v", recs, err)
	}

	enc := encodeMigrationJournal(recs)
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := decodeMigrationJournal(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	for i := 0; i < len(enc); i += 11 {
		flipped := append([]byte(nil), enc...)
		flipped[i] ^= 0x40
		if _, err := decodeMigrationJournal(flipped); err == nil {
			t.Fatalf("bit flip at %d decoded", i)
		}
	}
	if _, err := decodeMigrationJournal(encodeMigrationJournal([]MigrationRecord{
		{Seq: 1, State: "exploded"},
	})); err == nil {
		t.Fatal("unknown state decoded")
	}
	if _, err := decodeMigrationJournal(encodeMigrationJournal([]MigrationRecord{
		{Seq: -1, State: MigStateAborted},
	})); err == nil {
		t.Fatal("negative sequence decoded")
	}
}

// TestJobMetaRoutingRoundTrip covers the JOB v3 routing extension: a
// non-identity table round trips, nil tables stay nil, and tables that
// disagree with the stage manifest are rejected at decode time.
func TestJobMetaRoutingRoundTrip(t *testing.T) {
	m := JobMeta{
		Gen: 7, Offset: 582, TuplesIn: 600, MaxTS: 12345, LedgerLen: 999,
		StagePars: []int64{2, 3},
		Routing:   [][]int64{nil, {2, 0, 1}},
	}
	got, err := decodeJobMeta(encodeJobMeta(m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
	bad := []JobMeta{
		// One table for two stages.
		{StagePars: []int64{2, 3}, Routing: [][]int64{{0, 1}}},
		// Wrong bucket count for the stage's parallelism.
		{StagePars: []int64{2, 3}, Routing: [][]int64{nil, {0, 1}}},
		// Out-of-range worker.
		{StagePars: []int64{2, 3}, Routing: [][]int64{nil, {0, 1, 3}}},
	}
	for i, b := range bad {
		if _, err := decodeJobMeta(encodeJobMeta(b)); err == nil {
			t.Fatalf("bad routing %d decoded: %+v", i, b.Routing)
		}
	}
}

// TestJobMigrationValidation rejects plans naming stages or workers the
// pipeline does not have before the job starts.
func TestJobMigrationValidation(t *testing.T) {
	tuples := crashTuples(60)
	pat := crashPatterns()[0]
	bad := []Migration{
		{Stage: 0, Bucket: 0, To: 1},  // Map stage holds no state
		{Stage: 9, Bucket: 0, To: 1},  // no such stage
		{Stage: 1, Bucket: 5, To: 1},  // bucket out of range
		{Stage: 1, Bucket: 0, To: 5},  // worker out of range
		{Stage: 1, Bucket: -1, To: 1}, // negative bucket
		{Stage: 1, Bucket: 0, To: -1}, // negative worker
	}
	for i, mg := range bad {
		base := t.TempDir()
		job := &Job{
			Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10),
			Source:          NewSliceSource(tuples),
			Dir:             filepath.Join(base, "job"),
			CheckpointEvery: 25,
			Migrations:      []Migration{mg},
		}
		if _, err := job.Run(); err == nil {
			t.Fatalf("plan %d (%+v) was accepted", i, mg)
		}
	}
}

// FuzzDecodeMigrationRecord throws corrupt bytes at both migration
// decoders — the migration journal and the JOB v3 routing extension.
// Neither may panic, and anything that decodes must re-encode into a
// form that decodes to the same value.
func FuzzDecodeMigrationRecord(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(migJournalMagic))
	f.Add(encodeMigrationJournal(nil))
	real := encodeMigrationJournal([]MigrationRecord{
		{Seq: 1, Stage: 1, Bucket: 0, From: 0, To: 1, BaseGen: 2, State: MigStateCommitted},
		{Seq: 2, Stage: 1, Bucket: 1, From: 1, To: 0, BaseGen: 4, State: MigStateAborted, Detail: "prepare: boom"},
	})
	f.Add(real)
	f.Add(real[:len(real)/2])
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	meta := encodeJobMeta(JobMeta{
		Gen: 3, Offset: 291, StagePars: []int64{2, 2}, Routing: [][]int64{nil, {1, 0}},
	})
	f.Add(meta)
	f.Add(meta[:len(meta)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		if recs, err := decodeMigrationJournal(b); err == nil {
			again, err := decodeMigrationJournal(encodeMigrationJournal(recs))
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if len(again) != len(recs) {
				t.Fatalf("re-encode changed record count: %d vs %d", len(again), len(recs))
			}
		}
		if m, err := decodeJobMeta(b); err == nil {
			if _, err := decodeJobMeta(encodeJobMeta(m)); err != nil {
				t.Fatalf("meta re-encode failed: %v", err)
			}
		}
	})
}
