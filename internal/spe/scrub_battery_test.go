package spe

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/core"
	"flowkv/internal/core/aur"
	"flowkv/internal/faultfs"
)

// The scrub battery: plant silent corruption (bit flips, zeroed pages,
// stale blocks) in committed job state — checkpoint segments, manifests,
// metadata sidecars, the JOB file, the sink ledger — and require that
// the rot is never served as valid output. A resumed job either repairs
// around the damage (quarantine the tip, fall back to an older retained
// generation) and produces a ledger byte-identical to the golden run, or
// it fails typed; and whenever the on-disk bytes diverge from golden,
// offline verification (VerifyJobDir) must flag the directory.

// scrubIters returns the iteration count for the randomized battery.
// FLOWKV_SCRUB_ITERS overrides (the CI nightly runs longer).
func scrubIters(t *testing.T) int {
	if s := os.Getenv("FLOWKV_SCRUB_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad FLOWKV_SCRUB_ITERS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 6
	}
	return 36
}

// jobFiles lists every regular file under the job directory, sorted,
// skipping quarantine markers (rotting a marker is not data corruption).
func jobFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "QUARANTINE" {
			return err
		}
		out = append(out, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no files under %s", dir)
	}
	return out
}

// rotTipCheckpoint flips a byte in the largest checkpoint file of the
// committed tip generation — rot inside state that restore must read.
func rotTipCheckpoint(t *testing.T, jobDir string, gen int64) string {
	t.Helper()
	var target string
	var size int64
	gdir := filepath.Join(jobDir, genDirName(gen))
	err := filepath.WalkDir(gdir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == genMetaName || d.Name() == "QUARANTINE" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if info.Size() > size {
			target, size = path, info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if target == "" {
		t.Fatalf("no checkpoint files under %s", gdir)
	}
	if err := faultfs.CorruptAtRest(nil, target, faultfs.CorruptBitFlip, -1); err != nil {
		t.Fatal(err)
	}
	return target
}

// TestJobResumeRejectsRottenTip: with a single retained generation there
// is nothing to fall back to — Resume over a bit-flipped tip must fail
// typed (core.ErrCheckpointInvalid), quarantine the generation, and keep
// failing on retry rather than ever serving the rotten state.
func TestJobResumeRejectsRottenTip(t *testing.T) {
	tuples := crashTuples(500)
	const every = 97
	pat := crashPatterns()[0]
	base := t.TempDir()
	src := NewSliceSource(tuples)
	mk := func(kill int64) *Job {
		return &Job{
			Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10),
			Source:          src,
			Dir:             filepath.Join(base, "job"),
			CheckpointEvery: every,
			KillAfterTuples: kill,
		}
	}
	if _, err := mk(3*every + 10).Run(); !errors.Is(err, ErrJobKilled) {
		t.Fatalf("run: %v", err)
	}
	meta, err := ReadJobMeta(nil, filepath.Join(base, "job"))
	if err != nil {
		t.Fatal(err)
	}
	rotTipCheckpoint(t, filepath.Join(base, "job"), meta.Gen)
	if err := VerifyJobDir(nil, filepath.Join(base, "job")); err == nil {
		t.Fatal("offline verify accepted a rotted generation")
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := mk(0).Resume(); !errors.Is(err, core.ErrCheckpointInvalid) {
			t.Fatalf("resume attempt %d over rotten tip: %v", attempt, err)
		}
	}
	tip := filepath.Join(base, "job", genDirName(meta.Gen))
	if !core.IsQuarantined(nil, tip) {
		t.Fatal("rotten tip was not quarantined")
	}
}

// TestJobResumeFallsBackToRetainedGeneration: with RetainGenerations=2
// a bit-flipped tip is quarantined and Resume restarts from the previous
// generation's GENMETA — replaying further back but still committing a
// ledger byte-identical to the uninterrupted golden run.
func TestJobResumeFallsBackToRetainedGeneration(t *testing.T) {
	tuples := crashTuples(500)
	const every = 97
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenLedger(t, pat, tuples, every, 1<<10)
			base := t.TempDir()
			src := NewSliceSource(tuples)
			mk := func(kill int64) *Job {
				return &Job{
					Pipeline:          crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10),
					Source:            src,
					Dir:               filepath.Join(base, "job"),
					CheckpointEvery:   every,
					KillAfterTuples:   kill,
					RetainGenerations: 2,
				}
			}
			if _, err := mk(3*every + 10).Run(); !errors.Is(err, ErrJobKilled) {
				t.Fatalf("run: %v", err)
			}
			jobDir := filepath.Join(base, "job")
			meta, err := ReadJobMeta(nil, jobDir)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Gen < 2 {
				t.Fatalf("want >= 2 committed generations, got %d", meta.Gen)
			}
			gens, err := ListGenerations(nil, jobDir)
			if err != nil || len(gens) != 2 {
				t.Fatalf("retained generations: %v (err %v)", gens, err)
			}
			rotTipCheckpoint(t, jobDir, meta.Gen)

			res, err := mk(0).Resume()
			if err != nil {
				t.Fatalf("resume with fallback: %v", err)
			}
			if !res.Final {
				t.Fatal("job not final after fallback resume")
			}
			checkLedger(t, jobDir, golden)
			if err := VerifyJobDir(nil, jobDir); err != nil {
				t.Fatalf("offline verify after fallback: %v", err)
			}
		})
	}
}

// TestScrubBatteryEveryFileClass is the randomized rot battery: each
// iteration kills a job mid-stream, plants one corruption (rotating
// kind) in one committed file (rotating over every file class the job
// directory holds — checkpoint segments, MANIFEST, APPMETA, GENMETA,
// JOB, SINK.log), then drives resume. The invariant is freedom from
// silent corruption: if the job reaches Final and offline verification
// is clean, the ledger must equal golden; any divergence must be
// detected by a typed resume error or by VerifyJobDir.
func TestScrubBatteryEveryFileClass(t *testing.T) {
	iters := scrubIters(t)
	tuples := crashTuples(450)
	const every = 79
	pats := crashPatterns()
	goldens := make([][]byte, len(pats))
	for i, pat := range pats {
		goldens[i] = goldenLedger(t, pat, tuples, every, 1<<10)
	}
	kinds := []faultfs.CorruptKind{faultfs.CorruptBitFlip, faultfs.CorruptZeroPage, faultfs.CorruptStale}
	rng := rand.New(rand.NewSource(0x5c12b))
	base := t.TempDir()
	for i := 0; i < iters; i++ {
		pi := i % len(pats)
		pat, golden := pats[pi], goldens[pi]
		dir := filepath.Join(base, fmt.Sprintf("i%03d", i))
		jobDir := filepath.Join(dir, "job")
		src := NewSliceSource(tuples)
		mk := func(kill int64) *Job {
			return &Job{
				Pipeline:          crashPipeline(pat, filepath.Join(dir, "state"), nil, 1<<10),
				Source:            src,
				Dir:               jobDir,
				CheckpointEvery:   every,
				KillAfterTuples:   kill,
				RetainGenerations: 2,
			}
		}
		kill := int64(2*every) + rng.Int63n(int64(len(tuples)-2*every))
		if _, err := mk(kill).Run(); !errors.Is(err, ErrJobKilled) {
			t.Fatalf("iter %d: run: %v", i, err)
		}

		files := jobFiles(t, jobDir)
		target := files[rng.Intn(len(files))]
		kind := kinds[i%len(kinds)]
		if err := faultfs.CorruptAtRest(nil, target, kind, -1); err != nil {
			t.Fatalf("iter %d: rot %s: %v", i, target, err)
		}

		var res *JobResult
		var resumeErr error
		for attempt := 0; attempt < 10; attempt++ {
			res, resumeErr = runOrResume(mk(0))
			if resumeErr != nil {
				break // detection: a typed failure, never wrong bytes
			}
			if res.Final {
				break
			}
		}
		verifyErr := VerifyJobDir(nil, jobDir)
		rel, _ := filepath.Rel(jobDir, target)
		switch {
		case resumeErr != nil:
			// Detected. The rot must also be independently visible offline
			// unless resume already quarantined it into a typed marker (a
			// quarantined generation is a verify failure too).
			if verifyErr == nil {
				t.Fatalf("iter %d (%s %v): resume failed (%v) but offline verify is clean",
					i, rel, kind, resumeErr)
			}
		case res != nil && res.Final:
			got, err := os.ReadFile(filepath.Join(jobDir, ledgerName))
			if err != nil {
				t.Fatalf("iter %d: read ledger: %v", i, err)
			}
			if !bytes.Equal(got, golden) && verifyErr == nil {
				t.Fatalf("iter %d (%s %v): silent corruption — job final, verify clean, ledger diverges",
					i, rel, kind)
			}
		default:
			t.Fatalf("iter %d (%s %v): job neither final nor failed", i, rel, kind)
		}
	}
}

// TestScrubBatteryZeroedPageIsFrameError zeroes a page inside the committed
// SINK.log prefix, inside the committed generation's rmw.dlt and stat.dlt
// replay segments, and in its AUR segments.snap — the rot v0 framing read
// as a run of valid empty records. Each must fail typed, as a
// *binio.FrameError: the ledger from VerifyJobDir and ReadLedger, a replay
// segment from the replay its restore runs, segments.snap from the AUR
// store's Restore (the checkpoint MANIFEST catches both first, as the
// CheckpointError VerifyJobDir reports). Never a shorter result.
func TestScrubBatteryZeroedPageIsFrameError(t *testing.T) {
	tuples := crashTuples(450)
	const every = 79
	for _, leg := range []struct {
		pat     crashPattern
		logical string // replay stream to rot; "" rots the ledger
	}{
		{crashPatterns()[0], ""},
		{crashPatterns()[2], "rmw.dlt"},
		{crashPatterns()[1], "stat.dlt"},
		{crashPatterns()[1], "segments.snap"},
	} {
		name := leg.logical
		if name == "" {
			name = ledgerName
		}
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			job := &Job{
				Pipeline:        crashPipeline(leg.pat, filepath.Join(base, "state"), nil, 1<<10),
				Source:          NewSliceSource(tuples),
				Dir:             filepath.Join(base, "job"),
				CheckpointEvery: every,
				KillAfterTuples: 300,
			}
			if _, err := job.Run(); !errors.Is(err, ErrJobKilled) {
				t.Fatalf("run: %v", err)
			}
			meta, err := ReadJobMeta(nil, job.Dir)
			if err != nil {
				t.Fatal(err)
			}
			var fe *binio.FrameError
			if leg.logical == "" {
				if meta.LedgerLen == 0 {
					t.Fatal("nothing committed to the ledger")
				}
				if err := faultfs.CorruptAtRest(nil, filepath.Join(job.Dir, ledgerName), faultfs.CorruptZeroPage, meta.LedgerLen/2); err != nil {
					t.Fatal(err)
				}
				if err := VerifyJobDir(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("VerifyJobDir over a zeroed ledger page: %v, want a FrameError", err)
				}
				if recs, err := ReadLedger(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("ReadLedger over a zeroed ledger page: %d records, %v; want a FrameError", len(recs), err)
				}
				return
			}
			inst := filepath.Join(job.Dir, genDirName(meta.Gen), cutDirName(1, 0), "inst-00")
			if leg.logical == "segments.snap" {
				if err := faultfs.CorruptAtRest(nil, filepath.Join(inst, leg.logical), faultfs.CorruptZeroPage, -1); err != nil {
					t.Fatal(err)
				}
				if err := VerifyJobDir(nil, job.Dir); !errors.Is(err, core.ErrCheckpointInvalid) {
					t.Fatalf("VerifyJobDir over a zeroed segments.snap page: %v, want a CheckpointError", err)
				}
				st, err := aur.Open(aur.Options{Dir: filepath.Join(base, "restored")})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Destroy()
				if err := st.Restore(inst); !errors.As(err, &fe) {
					t.Fatalf("restore over a zeroed segments.snap page: %v, want a FrameError", err)
				}
				return
			}
			segs, err := ckpt.ReadMeta(faultfs.OS, inst)
			if err != nil {
				t.Fatal(err)
			}
			fstate := segs.File(leg.logical)
			if fstate == nil || len(fstate.Segments) == 0 {
				t.Fatalf("%s records no %s segment", inst, leg.logical)
			}
			last := fstate.Segments[len(fstate.Segments)-1]
			if err := faultfs.CorruptAtRest(nil, filepath.Join(inst, last.Name), faultfs.CorruptZeroPage, last.Len/2); err != nil {
				t.Fatal(err)
			}
			if err := VerifyJobDir(nil, job.Dir); !errors.Is(err, core.ErrCheckpointInvalid) {
				t.Fatalf("VerifyJobDir over a zeroed %s page: %v, want a CheckpointError", leg.logical, err)
			}
			n := 0
			err = ckpt.Replay(faultfs.OS, inst, fstate, func([]byte) error { n++; return nil })
			if !errors.As(err, &fe) {
				t.Fatalf("replay of a zeroed %s page: %d records, %v; want a FrameError", leg.logical, n, err)
			}
		})
	}
}
