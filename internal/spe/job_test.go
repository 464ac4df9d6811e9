package spe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// The pipeline crash battery: kill a checkpointed job at random points
// (including mid-checkpoint-commit and mid-recovery), resume it, and
// require the committed sink ledger to come out byte-identical to an
// uninterrupted golden run — exactly-once output under crashes.

// crashIters returns the per-pattern iteration count for the randomized
// battery. FLOWKV_CRASH_ITERS overrides (the CI schedule runs longer).
func crashIters(t *testing.T) int {
	if s := os.Getenv("FLOWKV_CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad FLOWKV_CRASH_ITERS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 100
}

// crashTuples builds a deterministic stream: interleaved keys, gently
// increasing timestamps with periodic jumps large enough to close
// session windows mid-stream.
func crashTuples(n int) []Tuple {
	tuples := make([]Tuple, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(1 + i%3)
		if i%97 == 0 {
			ts += 300
		}
		tuples = append(tuples, Tuple{
			Key:   []byte(fmt.Sprintf("k%02d", i%11)),
			Value: []byte(strconv.Itoa(i % 13)),
			TS:    ts,
		})
	}
	return tuples
}

// crashHolistic is order-independent (count + sum), so results do not
// depend on the store's value ordering.
var crashHolistic = HolisticFunc(func(key []byte, values [][]byte) []byte {
	sum := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		sum += n
	}
	return []byte(fmt.Sprintf("n=%d sum=%d", len(values), sum))
})

var crashIncremental = IncrementalFunc{
	AddFunc: func(acc []byte, t Tuple) []byte {
		a := 0
		if acc != nil {
			a, _ = strconv.Atoi(string(acc))
		}
		n, _ := strconv.Atoi(string(t.Value))
		return []byte(strconv.Itoa(a + n))
	},
	MergeFunc: func(a, b []byte) []byte {
		x, _ := strconv.Atoi(string(a))
		y, _ := strconv.Atoi(string(b))
		return []byte(strconv.Itoa(x + y))
	},
}

// crashPattern is one FlowKV store pattern exercised by the battery.
type crashPattern struct {
	name string
	agg  core.AggKind
	wk   window.Kind
	spec OperatorSpec
}

func crashPatterns() []crashPattern {
	fixed := window.FixedAssigner{Size: 64}
	sess := window.SessionAssigner{Gap: 100}
	return []crashPattern{
		{"AAR", core.AggHolistic, window.Fixed,
			OperatorSpec{Assigner: fixed, Holistic: crashHolistic}},
		{"AUR", core.AggHolistic, window.Session,
			OperatorSpec{Assigner: sess, Holistic: crashHolistic}},
		{"RMW", core.AggIncremental, window.Fixed,
			OperatorSpec{Assigner: fixed, Incremental: crashIncremental}},
	}
}

// crashPipeline builds the battery's two-stage pipeline: a stateless map
// stage feeding a parallelism-2 FlowKV window stage. bufBytes sizes the
// store write buffer; fsys, when non-nil, is the fault-injection seam
// for backend state I/O.
func crashPipeline(pat crashPattern, stateDir string, fsys faultfs.FS, bufBytes int64) *Pipeline {
	spec := pat.spec
	opts := core.Options{Instances: 2, WriteBufferBytes: bufBytes}
	if fsys != nil {
		opts.FS = fsys
	}
	return &Pipeline{
		WatermarkEvery: 25,
		Stages: []Stage{
			{
				Name: "tag", Parallelism: 2,
				Map: func(t Tuple, emit func(Tuple)) { emit(t) },
			},
			{
				Name: "win", Parallelism: 2,
				Window: &spec,
				NewBackend: func(w int) (statebackend.Backend, error) {
					return statebackend.Open(statebackend.Config{
						Kind:       statebackend.KindFlowKV,
						Dir:        filepath.Join(stateDir, fmt.Sprintf("w%02d", w)),
						Agg:        pat.agg,
						WindowKind: pat.wk,
						Assigner:   spec.Assigner,
						FlowKV:     opts,
					})
				},
			},
		},
	}
}

// goldenLedger runs the job uninterrupted and returns the raw committed
// ledger bytes.
func goldenLedger(t *testing.T, pat crashPattern, tuples []Tuple, every int, bufBytes int64) []byte {
	t.Helper()
	base := t.TempDir()
	job := &Job{
		Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, bufBytes),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: every,
	}
	res, err := job.Run()
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if !res.Final {
		t.Fatal("golden run did not finish")
	}
	b, err := os.ReadFile(filepath.Join(base, "job", ledgerName))
	if err != nil {
		t.Fatalf("golden ledger: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("golden run produced no sink output")
	}
	return b
}

// runOrResume starts a job that may or may not have committed progress.
func runOrResume(j *Job) (*JobResult, error) {
	if _, err := ReadJobMeta(j.fs(), j.Dir); err == nil {
		return j.Resume()
	}
	return j.Run()
}

// resumeToFinal drives a crashed job to completion, then checks its
// ledger against golden byte-for-byte.
func resumeToFinal(t *testing.T, mk func(kill int64) *Job, golden []byte) {
	t.Helper()
	var res *JobResult
	var err error
	for attempts := 0; ; attempts++ {
		if attempts > 30 {
			t.Fatal("job did not reach final state after 30 attempts")
		}
		res, err = runOrResume(mk(0))
		if err == nil {
			break
		}
		t.Fatalf("resume: %v", err)
	}
	if !res.Final {
		t.Fatal("job not final after clean resume")
	}
	checkLedger(t, mk(0).Dir, golden)
}

func checkLedger(t *testing.T, jobDir string, golden []byte) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(jobDir, ledgerName))
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("ledger diverges from golden: %d bytes vs %d", len(got), len(golden))
	}
}

// TestJobCrashResumeExactlyOnce is the randomized kill battery: each
// iteration kills the job after a random number of tuples (possibly
// several times across resumes) and requires the final ledger to match
// the uninterrupted golden run exactly.
func TestJobCrashResumeExactlyOnce(t *testing.T) {
	iters := crashIters(t)
	tuples := crashTuples(600)
	const every = 97
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenLedger(t, pat, tuples, every, 1<<10)
			rng := rand.New(rand.NewSource(int64(0xf10c + len(pat.name)*7919)))
			base := t.TempDir()
			for i := 0; i < iters; i++ {
				dir := filepath.Join(base, fmt.Sprintf("i%03d", i))
				src := NewSliceSource(tuples)
				mk := func(kill int64) *Job {
					return &Job{
						Pipeline:        crashPipeline(pat, filepath.Join(dir, "state"), nil, 1<<10),
						Source:          src,
						Dir:             filepath.Join(dir, "job"),
						CheckpointEvery: every,
						KillAfterTuples: kill,
					}
				}
				res, err := mk(1 + rng.Int63n(int64(len(tuples)))).Run()
				for attempts := 0; err != nil; attempts++ {
					if !errors.Is(err, ErrJobKilled) {
						t.Fatalf("iter %d: unexpected error: %v", i, err)
					}
					if attempts > 30 {
						t.Fatalf("iter %d: still killed after %d attempts", i, attempts)
					}
					var kill int64
					if rng.Intn(2) == 0 {
						kill = 1 + rng.Int63n(int64(len(tuples)))
					}
					res, err = runOrResume(mk(kill))
				}
				if !res.Final {
					t.Fatalf("iter %d: job not final", i)
				}
				checkLedger(t, filepath.Join(dir, "job"), golden)
			}
		})
	}
}

// TestJobCrashDuringCommit crashes the filesystem in the middle of the
// checkpoint commit protocol itself — while renaming a generation's
// store checkpoint, while renaming the JOB file, and while syncing the
// ledger — and requires resume to land on the previous committed cut
// and still converge to the golden ledger.
func TestJobCrashDuringCommit(t *testing.T) {
	tuples := crashTuples(400)
	const every = 61
	pat := crashPatterns()[0] // AAR
	golden := goldenLedger(t, pat, tuples, every, 1<<10)
	legs := []struct {
		name string
		rule faultfs.Rule
	}{
		{"checkpoint-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "gen-", Crash: true}},
		{"second-checkpoint-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "gen-", Nth: 7, Crash: true}},
		{"job-commit-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "JOB", Crash: true}},
		{"ledger-sync", faultfs.Rule{Op: faultfs.OpSync, PathContains: ledgerName, Crash: true}},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS)
			src := NewSliceSource(tuples)
			mk := func() *Job {
				return &Job{
					Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<10),
					Source:          src,
					Dir:             filepath.Join(base, "job"),
					FS:              inj,
					CheckpointEvery: every,
				}
			}
			inj.SetRule(leg.rule)
			if _, err := mk().Run(); err == nil {
				t.Fatal("run survived a crashed filesystem")
			}
			if !inj.Fired() {
				t.Fatal("fault did not fire")
			}
			inj.Reset()
			resumeToFinal(t, func(int64) *Job { return mk() }, golden)
		})
	}
}

// TestJobCrashDuringRecovery crashes the filesystem again while the job
// is being resumed; the committed cut must survive and a second resume
// must complete to the golden ledger.
func TestJobCrashDuringRecovery(t *testing.T) {
	tuples := crashTuples(400)
	const every = 61
	pat := crashPatterns()[1] // AUR
	golden := goldenLedger(t, pat, tuples, every, 1<<10)
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
			KillAfterTuples: kill,
		}
	}
	// Establish committed progress, then kill.
	res, err := mk(250).Run()
	if !errors.Is(err, ErrJobKilled) {
		t.Fatalf("want ErrJobKilled, got %v", err)
	}
	if res.Gen == 0 {
		t.Fatal("no checkpoint committed before the kill")
	}
	// Crash early into the resume (backend rebuild / ledger truncate).
	inj.Reset()
	inj.SetRule(faultfs.Rule{AtOp: inj.Ops() + 5, Crash: true})
	if _, err := mk(0).Resume(); err == nil {
		t.Fatal("resume survived a crashed filesystem")
	}
	if !inj.Fired() {
		t.Fatal("recovery fault did not fire")
	}
	// And crash once more, later into the replay.
	inj.Reset()
	inj.SetRule(faultfs.Rule{AtOp: inj.Ops() + 40, Crash: true})
	if _, err := mk(0).Resume(); err == nil {
		t.Fatal("second resume survived a crashed filesystem")
	}
	inj.Reset()
	resumeToFinal(t, mk, golden)
}

// TestJobSelfHealRetriesCheckpoint injects a transient write failure
// into the store's live-log flush during a barrier checkpoint: the store
// degrades, the background self-healer recovers it (rewriting the
// buffered tail at the durable offset), the job retries the checkpoint
// once, and the run completes with golden output — a transient fault
// survived without restarting the pipeline. AUR is the pattern whose
// checkpoint flushes the write buffer into the live logs, so the fault
// lands on the degrade path rather than being confined to the snapshot
// directory (AAR absorbs flush faults with its in-memory fallback and stays
// Healthy; RMW checkpoints never write to the live logs at all).
func TestJobSelfHealRetriesCheckpoint(t *testing.T) {
	tuples := crashTuples(400)
	const every = 61
	pat := crashPatterns()[1] // AUR
	// Large write buffer: no flush during ingest, so the live-log write
	// fault can only fire inside a checkpoint's flush.
	golden := goldenLedger(t, pat, tuples, every, 1<<20)
	base := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	job := &Job{
		Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<20),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: every,
		SelfHeal:        &core.SelfHealOptions{},
	}
	// Arm the fault once the stores are open and ingest is underway, so
	// it cannot hit the open path.
	job.Pipeline.StatsEvery = 30
	armed := false
	job.Pipeline.OnStats = func(StatsReport) {
		if !armed {
			armed = true
			inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "state",
				Class: faultfs.ClassTransient, Times: 4})
		}
	}
	res, err := job.Run()
	if err != nil {
		t.Fatalf("run with self-heal: %v", err)
	}
	if !res.Final {
		t.Fatal("job not final")
	}
	if !inj.Fired() {
		t.Fatal("flush fault did not fire")
	}
	var recoveries int64
	for _, bs := range res.Backends {
		recoveries += bs.Recoveries
	}
	if recoveries == 0 {
		t.Fatal("self-healer recorded no recoveries")
	}
	checkLedger(t, filepath.Join(base, "job"), golden)
}

// TestOperatorSnapshotRoundTrip checks the operator snapshot codec:
// checkpointing a FlowKV backend with the operator's snapshot, restoring
// both into fresh instances — the snapshot decoded against the
// identities the restored store lists — and snapshotting again must
// reproduce identical bytes for every window kind the codec covers.
func TestOperatorSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		spec OperatorSpec
	}{
		{"aligned", OperatorSpec{Assigner: window.FixedAssigner{Size: 50}, Holistic: crashHolistic}},
		{"session", OperatorSpec{Assigner: window.SessionAssigner{Gap: 30}, Holistic: crashHolistic}},
		{"session-incremental", OperatorSpec{Assigner: window.SessionAssigner{Gap: 30}, Incremental: crashIncremental}},
		{"count", OperatorSpec{Assigner: window.CountAssigner{Size: 7}, Incremental: crashIncremental}},
		{"custom", OperatorSpec{Assigner: window.CustomAssigner{AssignFunc: func(ts int64) []window.Window {
			start := ts / 40 * 40
			return []window.Window{{Start: start, End: start + 40}}
		}}, Holistic: crashHolistic}},
	}
	tuples := crashTuples(300)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			b1 := specBackend(t, tc.spec, filepath.Join(base, "pre"))
			op, err := NewWindowOperator(tc.spec, b1, func(Tuple) {})
			if err != nil {
				t.Fatal(err)
			}
			for i, tp := range tuples {
				if err := op.OnTuple(tp); err != nil {
					t.Fatal(err)
				}
				if i%40 == 39 {
					if err := op.OnWatermark(tp.TS-20, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := op.snapshotState()
			cp, _ := statebackend.AsCheckpointer(b1)
			cpDir := filepath.Join(base, "cp")
			if err := cp.CheckpointMeta(cpDir, snap); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewWindowOperator(tc.spec, specBackend(t, tc.spec, filepath.Join(base, "post")), func(Tuple) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := (&jobRun{}).restoreCut(fresh, cpDir, false); err != nil {
				t.Fatal(err)
			}
			again := fresh.snapshotState()
			if !bytes.Equal(snap, again) {
				t.Fatalf("snapshot not stable across restore: %d bytes vs %d", len(snap), len(again))
			}
			if err := fresh.restoreState([]byte("garbage"), nil); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("restore of garbage: %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// specBackend opens the FlowKV backend spec's operator deploys, in dir.
func specBackend(t testing.TB, spec OperatorSpec, dir string) statebackend.Backend {
	t.Helper()
	agg := core.AggIncremental
	if spec.IsHolistic() {
		agg = core.AggHolistic
	}
	b, err := statebackend.Open(statebackend.Config{
		Kind:       statebackend.KindFlowKV,
		Dir:        dir,
		Agg:        agg,
		WindowKind: spec.Assigner.Kind(),
		Assigner:   spec.Assigner,
		FlowKV:     core.Options{Instances: 2, WriteBufferBytes: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Destroy() })
	return b
}

// TestJobMetaRoundTrip covers the JOB file codec and its crash
// atomicity guarantees at the unit level.
func TestJobMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := JobMeta{Gen: 42, Final: true, Offset: 1234, TuplesIn: 5678, MaxTS: 99, SinceWM: 7, LedgerLen: 4096, StagePars: []int64{1, 3, 2}}
	if err := faultfs.WriteFileAtomic(faultfs.OS, filepath.Join(dir, jobMetaName), encodeJobMeta(m)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobMeta(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("meta round trip: got %+v want %+v", got, m)
	}
	// JOB records of the retired v1 (no key-range manifest) and v2 (no
	// routing tables) formats are rejected: every directory a current
	// build commits carries v3, so nothing falls back to a directory scan.
	for _, magic := range []string{"flowkv-job1\n", "flowkv-job2\n"} {
		old := []byte(magic)
		for _, v := range []int64{m.Gen, 1, m.Offset, m.TuplesIn, m.MaxTS, m.SinceWM, m.LedgerLen} {
			old = binio.PutVarint(old, v)
		}
		if magic == "flowkv-job2\n" {
			old = binio.PutUvarint(old, 1)
			old = binio.PutVarint(old, 2)
		}
		_, err := decodeJobMeta(binio.AppendRecord(nil, old))
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("%q JOB record: err = %v, want bad magic", magic, err)
		}
	}
	// A corrupt JOB file is detected, not silently accepted.
	if err := os.WriteFile(filepath.Join(dir, jobMetaName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJobMeta(nil, dir); err == nil {
		t.Fatal("corrupt JOB file accepted")
	}
}

// linkFS records every hard link a job makes, as (source, destination).
type linkFS struct {
	faultfs.FS
	mu    sync.Mutex
	links [][2]string
}

func (l *linkFS) Link(oldpath, newpath string) error {
	l.mu.Lock()
	l.links = append(l.links, [2]string{oldpath, newpath})
	l.mu.Unlock()
	return l.FS.Link(oldpath, newpath)
}

// TestJobGenerationsChainIncrementally is the SPE leg of the
// incremental-checkpoint battery: every barrier commit after the first
// generation must go through the delta path, chaining on the previous
// generation's checkpoint of the same worker, so a file generation N ≥ 2
// holds that generation N-1's same worker held too is linked from there,
// not from the live store. Every committed checkpoint still verifies
// standalone (hard links keep it self-contained even though clearGens
// deletes the parent generation right after the commit).
func TestJobGenerationsChainIncrementally(t *testing.T) {
	tuples := crashTuples(600)
	// A barrier every 7 tuples: the crash tuples' windows fire at the event-time
	// gap every 97, so state must outlive a few barriers for a generation to
	// hold what its parent held.
	const every = 7
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			base := t.TempDir()
			fsys := &linkFS{FS: faultfs.OS}
			job := &Job{
				Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), fsys, 1<<10),
				Source:          NewSliceSource(tuples),
				Dir:             filepath.Join(base, "job"),
				FS:              fsys,
				CheckpointEvery: every,
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Final {
				t.Fatal("job did not finish")
			}
			meta, err := ReadJobMeta(nil, job.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Gen < 2 {
				t.Fatalf("job committed only generation %d; the chain was never exercised", meta.Gen)
			}
			genDir := filepath.Join(job.Dir, GenDirName(meta.Gen))
			infos, err := core.ListCheckpoints(nil, genDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) == 0 {
				t.Fatalf("no checkpoints in committed generation %s", genDir)
			}
			for _, ci := range infos {
				if ci.Err != nil {
					t.Errorf("%s fails verification: %v", ci.Path, ci.Err)
				}
			}
			// Each generation's links, by worker cut and file name.
			cutFile := func(gen int64, link [2]string) (string, bool) {
				dst := link[1]
				cut := filepath.Dir(dst)
				if filepath.Dir(cut) != filepath.Join(job.Dir, GenDirName(gen)) {
					return "", false
				}
				return filepath.Join(strings.TrimSuffix(filepath.Base(cut), ".tmp"), filepath.Base(dst)), true
			}
			var fromParent int
			for gen := int64(2); gen <= meta.Gen; gen++ {
				held := make(map[string]bool)
				for _, l := range fsys.links {
					if f, ok := cutFile(gen-1, l); ok {
						held[f] = true
					}
				}
				for _, l := range fsys.links {
					f, ok := cutFile(gen, l)
					if !ok || !held[f] {
						continue
					}
					if want := filepath.Join(job.Dir, GenDirName(gen-1), f); l[0] != want {
						t.Fatalf("generation %d links %s from %s; its parent holds it at %s", gen, f, l[0], want)
					}
					fromParent++
				}
			}
			if fromParent == 0 {
				t.Fatalf("no generation of %d linked a file from its parent", meta.Gen)
			}
			t.Logf("%d files linked from the parent generation over %d generations", fromParent, meta.Gen)
		})
	}
}
