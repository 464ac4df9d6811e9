package spe

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// The rescale battery: kill a checkpointed job at a random point, resume
// it at a DIFFERENT stage parallelism (down one, up one, doubled), and
// require the committed sink ledger to come out byte-identical to the
// uninterrupted golden run — exactly-once output across restarts that
// split/merge the committed key ranges.

// crashPipelineAt is crashPipeline with a configurable window-stage
// parallelism (the knob the rescale battery turns between resumes).
func crashPipelineAt(pat crashPattern, stateDir string, fsys faultfs.FS, bufBytes int64, par int) *Pipeline {
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
				Name: "win", Parallelism: par,
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

// joinCrashTuples builds a deterministic two-sided stream with enough key
// collisions that interval joins fire throughout.
func joinCrashTuples(n int) []Tuple {
	rng := rand.New(rand.NewSource(0x10e5ca1e))
	tuples := make([]Tuple, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(4))
		side := Left
		if rng.Intn(2) == 0 {
			side = Right
		}
		key := fmt.Sprintf("k%02d", rng.Intn(7))
		tuples = append(tuples, sideTuple(key, side, fmt.Sprintf("p%04d", i), ts))
	}
	return tuples
}

// joinJobPipeline builds a checkpointable interval-join pipeline: a
// stateless map stage feeding a par-way join stage over FlowKV AUR.
func joinJobPipeline(stateDir string, fsys faultfs.FS, bufBytes int64, par int) *Pipeline {
	spec := joinSpec(-7, 13)
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
				Name: "join", Parallelism: par,
				Join: &spec,
				NewBackend: func(w int) (statebackend.Backend, error) {
					return statebackend.Open(statebackend.Config{
						Kind:       statebackend.KindFlowKV,
						Dir:        filepath.Join(stateDir, fmt.Sprintf("w%02d", w)),
						Agg:        core.AggHolistic,
						WindowKind: window.Custom, // AUR
						FlowKV:     opts,
					})
				},
			},
		},
	}
}

// rescaleCase is one pipeline shape exercised by the rescale battery.
type rescaleCase struct {
	name   string
	tuples []Tuple
	// mk builds the job with the window/join stage at parallelism par.
	mk func(base string, par int, src *SliceSource, kill int64) *Job
}

func rescaleCases() []rescaleCase {
	const every = 97
	var cases []rescaleCase
	for _, pat := range crashPatterns() {
		pat := pat
		cases = append(cases, rescaleCase{
			name:   pat.name,
			tuples: crashTuples(600),
			mk: func(base string, par int, src *SliceSource, kill int64) *Job {
				return &Job{
					Pipeline:        crashPipelineAt(pat, filepath.Join(base, "state"), nil, 1<<10, par),
					Source:          src,
					Dir:             filepath.Join(base, "job"),
					CheckpointEvery: every,
					KillAfterTuples: kill,
				}
			},
		})
	}
	cases = append(cases, rescaleCase{
		name:   "interval-join",
		tuples: joinCrashTuples(600),
		mk: func(base string, par int, src *SliceSource, kill int64) *Job {
			return &Job{
				Pipeline:        joinJobPipeline(filepath.Join(base, "state"), nil, 1<<10, par),
				Source:          src,
				Dir:             filepath.Join(base, "job"),
				CheckpointEvery: every,
				KillAfterTuples: kill,
			}
		},
	})
	return cases
}

// goldenFor runs the case uninterrupted at parallelism 2 and returns the
// committed ledger bytes.
func goldenFor(t *testing.T, c rescaleCase) []byte {
	t.Helper()
	base := t.TempDir()
	res, err := c.mk(base, 2, NewSliceSource(c.tuples), 0).Run()
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

// TestJobRescaleResumeExactlyOnce is the rescale battery: each iteration
// starts the job at parallelism 2, kills it at a random point, and
// resumes at a different parallelism — down one (merge), up one (split),
// and doubled — possibly killing and re-rescaling several times. The
// final ledger must match the parallelism-2 golden run byte-for-byte.
func TestJobRescaleResumeExactlyOnce(t *testing.T) {
	iters := (crashIters(t) + 1) / 2
	rescalePars := []int{1, 3, 4} // -1, +1, 2x of the golden parallelism 2
	for _, c := range rescaleCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenFor(t, c)
			rng := rand.New(rand.NewSource(int64(0x5ca1e + len(c.name)*7919)))
			base := t.TempDir()
			for i := 0; i < iters; i++ {
				dir := filepath.Join(base, fmt.Sprintf("i%03d", i))
				src := NewSliceSource(c.tuples)
				par := rescalePars[i%len(rescalePars)]
				res, err := c.mk(dir, 2, src, 1+rng.Int63n(int64(len(c.tuples)))).Run()
				for attempts := 0; err != nil; attempts++ {
					if !errors.Is(err, ErrJobKilled) {
						t.Fatalf("iter %d: unexpected error: %v", i, err)
					}
					if attempts > 30 {
						t.Fatalf("iter %d: still killed after %d attempts", i, attempts)
					}
					var kill int64
					if rng.Intn(2) == 0 {
						kill = 1 + rng.Int63n(int64(len(c.tuples)))
					}
					res, err = runOrResume(c.mk(dir, par, src, kill))
					// Further resumes may land on yet another parallelism.
					par = rescalePars[rng.Intn(len(rescalePars))]
				}
				if !res.Final {
					t.Fatalf("iter %d: job not final", i)
				}
				checkLedger(t, filepath.Join(dir, "job"), golden)
			}
		})
	}
}

// TestJobCrashDuringCommitJoinAndShared pins the mid-checkpoint and
// mid-commit crash points for an interval-join stage: a crash while
// renaming its store checkpoint, and while renaming the JOB file over it.
// Resume must land on the previous committed cut and converge to the
// golden ledger. The shared-backend shape went with that mode; the join
// shape keeps its subtest so each leg is still named join/<leg>.
func TestJobCrashDuringCommitJoinAndShared(t *testing.T) {
	const every = 61
	tuples := joinCrashTuples(400)
	mk := func(base string, fsys faultfs.FS, src *SliceSource) *Job {
		return &Job{
			Pipeline:        joinJobPipeline(filepath.Join(base, "state"), fsys, 1<<10, 2),
			Source:          src,
			Dir:             filepath.Join(base, "job"),
			FS:              fsys,
			CheckpointEvery: every,
		}
	}
	legs := []struct {
		name string
		rule faultfs.Rule
	}{
		{"checkpoint-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "gen-", Crash: true}},
		{"second-checkpoint-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "gen-", Nth: 5, Crash: true}},
		{"job-commit-rename", faultfs.Rule{Op: faultfs.OpRename, PathContains: "JOB", Crash: true}},
		{"ledger-sync", faultfs.Rule{Op: faultfs.OpSync, PathContains: ledgerName, Crash: true}},
	}
	t.Run("join", func(t *testing.T) {
		goldenBase := t.TempDir()
		res, err := mk(goldenBase, nil, NewSliceSource(tuples)).Run()
		if err != nil || !res.Final {
			t.Fatalf("golden run: final=%v err=%v", res != nil && res.Final, err)
		}
		golden, err := os.ReadFile(filepath.Join(goldenBase, "job", ledgerName))
		if err != nil || len(golden) == 0 {
			t.Fatalf("golden ledger: %v (%d bytes)", err, len(golden))
		}
		for _, leg := range legs {
			t.Run(leg.name, func(t *testing.T) {
				base := t.TempDir()
				inj := faultfs.NewInjector(faultfs.OS)
				src := NewSliceSource(tuples)
				mkRun := func() *Job { return mk(base, inj, src) }
				inj.SetRule(leg.rule)
				if _, err := mkRun().Run(); err == nil {
					t.Fatal("run survived a crashed filesystem")
				}
				if !inj.Fired() {
					t.Fatal("fault did not fire")
				}
				inj.Reset()
				resumeToFinal(t, func(int64) *Job { return mkRun() }, golden)
			})
		}
	})
}

// TestJobRescaleCrashDuringRecovery crashes the filesystem while a
// rescaling resume is splitting committed checkpoints through the scratch
// store. The committed generation is read-only during the re-route, so a
// second resume — at yet another parallelism — must still converge.
func TestJobRescaleCrashDuringRecovery(t *testing.T) {
	tuples := crashTuples(400)
	const every = 61
	pat := crashPatterns()[0] // AAR
	base := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	src := NewSliceSource(tuples)
	mk := func(par int, kill int64) *Job {
		return &Job{
			Pipeline:        crashPipelineAt(pat, filepath.Join(base, "state"), inj, 1<<10, par),
			Source:          src,
			Dir:             filepath.Join(base, "job"),
			FS:              inj,
			CheckpointEvery: every,
			KillAfterTuples: kill,
		}
	}
	goldenBase := t.TempDir()
	goldenJob := &Job{
		Pipeline:        crashPipelineAt(pat, filepath.Join(goldenBase, "state"), nil, 1<<10, 2),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(goldenBase, "job"),
		CheckpointEvery: every,
	}
	if res, err := goldenJob.Run(); err != nil || !res.Final {
		t.Fatalf("golden run: err=%v", err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenBase, "job", ledgerName))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden ledger: %v (%d bytes)", err, len(golden))
	}
	// Establish committed progress at parallelism 2, then kill.
	if _, err := mk(2, 250).Run(); !errors.Is(err, ErrJobKilled) {
		t.Fatalf("want ErrJobKilled, got %v", err)
	}
	// Crash inside the rescaling restore: the scratch re-route writes into
	// the scratch store and the new workers' stores.
	inj.Reset()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "state", Nth: 10, Crash: true})
	if _, err := mk(3, 0).Resume(); err == nil {
		t.Fatal("rescaling resume survived a crashed filesystem")
	}
	if !inj.Fired() {
		t.Fatal("recovery fault did not fire")
	}
	inj.Reset()
	// Converge at yet another parallelism.
	resumeToFinal(t, func(int64) *Job { return mk(4, 0) }, golden)
}

// TestOperatorSnapshotJoinReplay is the snapshot→restore→replay property
// test for the interval-join operator: cutting a stream at any point,
// checkpointing the backend with the operator snapshot as metadata,
// restoring both into fresh instances, and replaying the suffix must
// produce exactly the joins of an uninterrupted run.
func TestOperatorSnapshotJoinReplay(t *testing.T) {
	spec := joinSpec(-7, 13)
	mkBackend := func(dir string) statebackend.Backend {
		b, err := statebackend.Open(statebackend.Config{
			Kind:       statebackend.KindFlowKV,
			Dir:        dir,
			Agg:        core.AggHolistic,
			WindowKind: window.Custom, // AUR
			FlowKV:     core.Options{Instances: 2, WriteBufferBytes: 1 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name   string
		tuples []Tuple
		wms    []int64
		cuts   []int
	}{
		// Random two-sided stream, cuts sweeping the whole run.
		{"mixed", joinCrashTuples(400), []int64{50, 120, 200, 320}, []int{1, 37, 100, 201, 399}},
		// Only the left side ever arrives: snapshots with an empty right
		// registry must restore and keep classifying correctly.
		{"empty-side", func() []Tuple {
			var ts int64
			out := make([]Tuple, 0, 120)
			for i := 0; i < 120; i++ {
				ts += 2
				out = append(out, sideTuple(fmt.Sprintf("k%d", i%5), Left, fmt.Sprintf("l%03d", i), ts))
			}
			return out
		}(), []int64{60, 140, 220}, []int{10, 60, 110}},
		// Watermark lands inside a bucket's span, so live buckets straddle
		// the expiry horizon at the cut.
		{"wm-straddling", func() []Tuple {
			var out []Tuple
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%3)
				out = append(out, sideTuple(key, Left, fmt.Sprintf("l%03d", i), int64(i*3)))
				out = append(out, sideTuple(key, Right, fmt.Sprintf("r%03d", i), int64(i*3+1)))
			}
			return out
		}(), []int64{31, 155, 317, 471}, []int{51, 151, 303}},
	}
	run := func(op *IntervalJoinOperator, tuples []Tuple, wms []int64, wi *int) {
		for _, tp := range tuples {
			if err := op.OnTuple(tp); err != nil {
				t.Fatal(err)
			}
			for *wi < len(wms) && wms[*wi] <= tp.TS {
				if err := op.OnWatermark(wms[*wi], 0); err != nil {
					t.Fatal(err)
				}
				*wi++
			}
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Golden: uninterrupted run.
			var golden []string
			gb := mkBackend(filepath.Join(t.TempDir(), "golden"))
			gop, err := NewIntervalJoinOperator(spec, gb, func(tp Tuple) { golden = append(golden, string(tp.Value)) })
			if err != nil {
				t.Fatal(err)
			}
			gwi := 0
			run(gop, tc.tuples, tc.wms, &gwi)
			if err := gop.Finish(0); err != nil {
				t.Fatal(err)
			}
			gb.Destroy()
			sort.Strings(golden)

			for _, cut := range tc.cuts {
				base := t.TempDir()
				var got []string
				b1 := mkBackend(filepath.Join(base, "pre"))
				op1, err := NewIntervalJoinOperator(spec, b1, func(tp Tuple) { got = append(got, string(tp.Value)) })
				if err != nil {
					t.Fatal(err)
				}
				wi := 0
				run(op1, tc.tuples[:cut], tc.wms, &wi)
				// Checkpoint the cut: backend state + operator snapshot.
				cp, ok := statebackend.AsCheckpointer(b1)
				if !ok {
					t.Fatal("flowkv backend lost its checkpointer")
				}
				cpDir := filepath.Join(base, "cp")
				if err := cp.CheckpointMeta(cpDir, op1.snapshotState()); err != nil {
					t.Fatal(err)
				}
				b1.Destroy()
				// Restore into fresh instances and replay the suffix.
				b2 := mkBackend(filepath.Join(base, "post"))
				cp2, _ := statebackend.AsCheckpointer(b2)
				snap, err := cp2.RestoreMeta(cpDir)
				if err != nil {
					t.Fatal(err)
				}
				op2, err := NewIntervalJoinOperator(spec, b2, func(tp Tuple) { got = append(got, string(tp.Value)) })
				if err != nil {
					t.Fatal(err)
				}
				if err := op2.restoreState(snap, nil); err != nil {
					t.Fatal(err)
				}
				if again := op2.snapshotState(); !bytes.Equal(snap, again) {
					t.Fatalf("cut %d: snapshot not stable across restore", cut)
				}
				run(op2, tc.tuples[cut:], tc.wms, &wi)
				if err := op2.Finish(0); err != nil {
					t.Fatal(err)
				}
				b2.Destroy()
				sort.Strings(got)
				if len(got) != len(golden) {
					t.Fatalf("cut %d: %d joins, want %d", cut, len(got), len(golden))
				}
				for i := range golden {
					if got[i] != golden[i] {
						t.Fatalf("cut %d: join %d = %q, want %q", cut, i, got[i], golden[i])
					}
				}
			}
		})
	}
}

// TestParseCutDir pins the one place a generation names its cuts:
// cutDirName and ParseCutDir round-trip, junk names are ignored (the
// sSS-shared cut of the retired shared-backend mode among them),
// StageCuts checks a listing against the
// key-range manifest, and verification of a job whose committed
// generation is missing fails.
func TestParseCutDir(t *testing.T) {
	for _, tc := range []struct {
		name   string
		si, w  int
		parsed bool
	}{
		{"s01-w00", 1, 0, true},
		{"s03-w12", 3, 12, true},
		{"s02-shared", 0, 0, false},
		{"s100-w100", 100, 100, true},
		{"junk", 0, 0, false},
		{"GENMETA", 0, 0, false},
		{"", 0, 0, false},
		{"s1-w0", 0, 0, false},
		{"s01-w00x", 0, 0, false},
		{"s01-w-1", 0, 0, false},
		{"s-1-w00", 0, 0, false},
		{"s01-shared.tmp", 0, 0, false},
		{"s01", 0, 0, false},
	} {
		si, w, ok := ParseCutDir(tc.name)
		if ok != tc.parsed || (ok && (si != tc.si || w != tc.w)) {
			t.Errorf("ParseCutDir(%q) = %d, %d, %v; want %d, %d, %v", tc.name, si, w, ok, tc.si, tc.w, tc.parsed)
		}
		if ok && cutDirName(si, w) != tc.name {
			t.Errorf("cutDirName(%d, %d) = %q, want %q", si, w, cutDirName(si, w), tc.name)
		}
	}

	gd := t.TempDir()
	for _, sub := range []string{"s01-w00", "s01-w01", "s01-w02", "s02-shared", "junk", "s03-w00"} {
		if err := os.MkdirAll(filepath.Join(gd, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(gd)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := StageCuts(ents, []int64{2, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int]int{1: 3, 3: 1}; !reflect.DeepEqual(cuts, want) {
		t.Errorf("StageCuts = %v, want %v", cuts, want)
	}
	if _, err := StageCuts(ents, []int64{2, 4, 2, 1}); err == nil {
		t.Error("stage 1 holds 3 of 4 worker cuts, accepted")
	}
	if _, err := StageCuts(ents, []int64{2, 2, 2, 1}); err == nil {
		t.Error("cut s01-w02 outside a 2-way stage accepted")
	}
	if _, err := StageCuts(ents, []int64{2, 3, 2}); err == nil {
		t.Error("cut of an unrecorded stage accepted")
	}

	jobDir := t.TempDir()
	rec := encodeJobMeta(JobMeta{Gen: 9, StagePars: []int64{1}})
	if err := faultfs.WriteFileAtomic(faultfs.OS, filepath.Join(jobDir, jobMetaName), rec); err != nil {
		t.Fatal(err)
	}
	if err := VerifyJobDir(nil, jobDir); err == nil || !strings.Contains(err.Error(), "generation 9 is missing") {
		t.Errorf("missing committed generation: err = %v", err)
	}
}

// TestJobResumeNamesMissingCut damages the committed generation's cuts
// of stage 1: Resume must fail with an error naming the stage and the
// missing directory, and must not mistake the loss for rot — the
// generation is not quarantined. The legs delete one worker cut, and
// turn the stage into the single s01-shared cut that the retired
// shared-backend mode wrote, which is not a cut any more.
func TestJobResumeNamesMissingCut(t *testing.T) {
	pat := crashPatterns()[0]
	tuples := crashTuples(300)
	for _, leg := range []struct {
		name string
		// damage edits the generation directory and returns the cut
		// that Resume must name as missing.
		damage func(t *testing.T, genDir string) string
	}{
		{"deleted-worker", func(t *testing.T, genDir string) string {
			lost := filepath.Join(genDir, cutDirName(1, 1))
			if err := os.RemoveAll(lost); err != nil {
				t.Fatal(err)
			}
			return lost
		}},
		{"shared-layout", func(t *testing.T, genDir string) string {
			if err := os.RemoveAll(filepath.Join(genDir, cutDirName(1, 1))); err != nil {
				t.Fatal(err)
			}
			lost := filepath.Join(genDir, cutDirName(1, 0))
			if err := os.Rename(lost, filepath.Join(genDir, "s01-shared")); err != nil {
				t.Fatal(err)
			}
			return lost
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			base := t.TempDir()
			mk := func(kill int64) *Job {
				return &Job{
					Pipeline:        crashPipelineAt(pat, filepath.Join(base, "state"), nil, 1<<10, 2),
					Source:          NewSliceSource(tuples),
					Dir:             filepath.Join(base, "job"),
					CheckpointEvery: 61,
					KillAfterTuples: kill,
				}
			}
			if _, err := mk(200).Run(); !errors.Is(err, ErrJobKilled) {
				t.Fatalf("want ErrJobKilled, got %v", err)
			}
			meta, err := ReadJobMeta(nil, filepath.Join(base, "job"))
			if err != nil {
				t.Fatal(err)
			}
			genDir := filepath.Join(base, "job", GenDirName(meta.Gen))
			lost := leg.damage(t, genDir)
			_, err = mk(0).Resume()
			if err == nil || !strings.Contains(err.Error(), "stage win") ||
				!strings.Contains(err.Error(), "committed cut "+lost+" is missing") {
				t.Fatalf("resume over a missing cut: err = %v, want one naming stage win and %s", err, lost)
			}
			if errors.Is(err, core.ErrCheckpointInvalid) || core.IsQuarantined(nil, genDir) {
				t.Fatalf("a missing cut was treated as rot: %v", err)
			}
			filepath.WalkDir(filepath.Join(base, "job"), func(path string, d fs.DirEntry, err error) error {
				if err == nil && d.Name() == "QUARANTINE" {
					t.Errorf("a missing cut was quarantined: %s", path)
				}
				return nil
			})
		})
	}
}

// randomOpState builds a random window or join operator state shaped as
// a live operator holds it: registries only ever hold non-empty key
// sets.
func randomOpState(rng *rand.Rand, join bool) opSnapshotter {
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(80)) }
	win := func() window.Window {
		start := int64(rng.Intn(40)) * 10
		return window.Window{Start: start, End: start + 10*int64(1+rng.Intn(3))}
	}
	wm := int64(rng.Intn(600)) - 100
	if rng.Intn(8) == 0 {
		wm = -1 << 62 // no watermark seen yet
	}
	o := emptyOpState(join)
	if j, ok := o.(*IntervalJoinOperator); ok {
		j.wm, j.results, j.late = wm, rng.Int63n(1000), rng.Int63n(50)
		for _, side := range []Side{Left, Right} {
			for i := rng.Intn(30); i > 0; i-- {
				addKey(j.buckets[side], win(), key())
			}
		}
		return j
	}
	w := o.(*WindowOperator)
	w.wm, w.resultsEmitted, w.lateDropped, w.triggersFired = wm, rng.Int63n(1000), rng.Int63n(50), rng.Int63n(500)
	for i := rng.Intn(30); i > 0; i-- {
		addKey(w.aligned, win(), key())
	}
	for i := rng.Intn(20); i > 0; i-- {
		// A key's initials are distinct store identities; most sessions
		// hold one, many run past it, a few merged several.
		var list []*session
		seen := make(map[window.Window]bool)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			s := &session{}
			for m := 1 + rng.Intn(3)*rng.Intn(2); m > 0; m-- {
				iw := win()
				for seen[iw] {
					iw = win()
				}
				seen[iw] = true
				s.initials = append(s.initials, iw)
			}
			s.cur = s.initials[0]
			if rng.Intn(3) > 0 {
				s.cur = win()
			}
			list = append(list, s)
		}
		w.sessions[key()] = list
	}
	for i := rng.Intn(20); i > 0; i-- {
		k := key()
		if w.custom[k] == nil {
			w.custom[k] = make(map[window.Window]int64)
		}
		w.custom[k][win()] = rng.Int63n(1000)
	}
	for i := rng.Intn(20); i > 0; i-- {
		w.counts[key()] = rng.Int63n(100)
	}
	return w
}

// opStateKeys returns an operator state's keyed registry entries as
// "registry/key" strings, with its watermark and counter sum.
func opStateKeys(op opSnapshotter) (keys []string, wm, counters int64) {
	if o, ok := op.(*IntervalJoinOperator); ok {
		for _, side := range []Side{Left, Right} {
			for w, set := range o.buckets[side] {
				for k := range set {
					keys = append(keys, fmt.Sprintf("%c%v/%s", side, w, k))
				}
			}
		}
		return keys, o.wm, o.results + o.late
	}
	o := op.(*WindowOperator)
	for w, set := range o.aligned {
		for k := range set {
			keys = append(keys, fmt.Sprintf("a%v/%s", w, k))
		}
	}
	for k := range o.sessions {
		keys = append(keys, "s/"+k)
	}
	for k := range o.custom {
		keys = append(keys, "c/"+k)
	}
	for k := range o.counts {
		keys = append(keys, "n/"+k)
	}
	return keys, o.wm, o.resultsEmitted + o.lateDropped + o.triggersFired
}

// identitiesOf lists the store identities an operator state's sessions
// claim — what its store holds — or nil for a join.
func identitiesOf(op opSnapshotter) []core.Identity {
	o, ok := op.(*WindowOperator)
	if !ok {
		return nil
	}
	var ids []core.Identity
	for _, c := range o.sessionClaims() {
		ids = append(ids, c.id)
	}
	return ids
}

// reencode encodes an operator state, decodes it into a fresh shell
// against the identities it claims, and requires the shell to encode to
// the same bytes; it returns them.
func reencode(t *testing.T, op opSnapshotter, join bool) []byte {
	t.Helper()
	snap := op.snapshotState()
	re := emptyOpState(join)
	if err := re.restoreState(snap, identitiesOf(op)); err != nil {
		t.Fatal(err)
	}
	if again := re.snapshotState(); !bytes.Equal(again, snap) {
		t.Fatalf("a decoded snapshot re-encodes differently:\n%x\n%x", snap, again)
	}
	return snap
}

// TestOperatorSnapshotRegroup is the property test of regroup, the one
// primitive behind rescale, migration split and migration merge, over
// random window and join operator states: every key lands on its owner
// (a join by user key, the same worker on both sides), a split followed
// by a merge gives back the original bytes, n -> m -> n round-trips, job-
// level counter sums and the largest watermark are preserved, and every
// regrouped state's snapshot decodes against the identities it claims.
func TestOperatorSnapshotRegroup(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e9))
	for iter := 0; iter < 400; iter++ {
		join := iter%2 == 1
		n, m := 1+rng.Intn(4), 1+rng.Intn(5)
		route := func(par int) func(string) int {
			return func(k string) int { return routeKey([]byte(k), par) }
		}
		// Inputs as separate workers left them: any keys, watermarks and
		// counters.
		var in []opSnapshotter
		var inKeys []string
		var inWM, inCounters int64 = -1 << 63, 0
		for i := 0; i < n; i++ {
			st := randomOpState(rng, join)
			reencode(t, st, join)
			keys, wm, c := opStateKeys(st)
			in, inKeys = append(in, st), append(inKeys, keys...)
			inWM, inCounters = max(inWM, wm), inCounters+c
		}
		out := regroup(in, m, route(m), join)
		var outKeys []string
		var outCounters int64
		for w, st := range out {
			reencode(t, st, join)
			keys, wm, c := opStateKeys(st)
			for _, k := range keys {
				user := k[strings.LastIndexByte(k, '/')+1:]
				if got := routeKey([]byte(user), m); got != w {
					t.Fatalf("iter %d: key %s on worker %d of %d, owner %d", iter, k, w, m, got)
				}
			}
			if wm != inWM {
				t.Fatalf("iter %d: worker %d watermark %d, want the largest input's %d", iter, w, wm, inWM)
			}
			if w > 0 && c != 0 {
				t.Fatalf("iter %d: worker %d holds counters %d; they belong on worker 0", iter, w, c)
			}
			outKeys, outCounters = append(outKeys, keys...), outCounters+c
		}
		if outCounters != inCounters {
			t.Fatalf("iter %d: counter sum %d, want %d", iter, outCounters, inCounters)
		}
		sort.Strings(inKeys)
		sort.Strings(outKeys)
		// Distinct workers may hold the same key in different inputs; the
		// regrouped set is their union.
		inKeys = dedupStrings(inKeys)
		if !reflect.DeepEqual(inKeys, outKeys) {
			t.Fatalf("iter %d: keyed entries changed: %d in, %d out", iter, len(inKeys), len(outKeys))
		}

		// n -> m -> n round-trips from a regrouped (canonical) state.
		back := regroup(out, n, route(n), join)
		there := regroup(back, m, route(m), join)
		again := regroup(there, n, route(n), join)
		for w := range back {
			if !bytes.Equal(reencode(t, back[w], join), reencode(t, again[w], join)) {
				t.Fatalf("iter %d: %d -> %d -> %d changed worker %d", iter, n, m, n, w)
			}
		}

		// A migration's split followed by its merge gives back the source.
		src := randomOpState(rng, join)
		bucket := rng.Intn(n)
		moved := func(k string) int {
			if routeKey([]byte(k), n) == bucket {
				return 1
			}
			return 0
		}
		split := regroup([]opSnapshotter{src}, 2, moved, join)
		merged := regroup(split, 1, func(string) int { return 0 }, join)
		if !bytes.Equal(reencode(t, merged[0], join), reencode(t, src, join)) {
			t.Fatalf("iter %d: split then merge changed the snapshot", iter)
		}
	}
}

func dedupStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
