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
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/core"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
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
	gdir := filepath.Join(jobDir, GenDirName(gen))
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
	tip := filepath.Join(base, "job", GenDirName(meta.Gen))
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
// directory holds — checkpoint segments, CUT, GENMETA,
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
// SINK.log prefix, an RMW segment file a cut links, JOB and GENMETA, and
// the bytes of each section of a cut's CUT file. The CUT legs keep the
// names of the files the sections replaced: stat.dlt and rmw.buf are the
// AUR and RMW dump sections, aur.live a liveness section, SEGMENTS a
// files section, APPMETA the appmeta section, and MANIFEST the CUT's
// header. Each must fail typed, as a *binio.FrameError — a frame cannot
// start with a zero byte, so a zeroed page is never a run of valid empty
// records: the ledger from VerifyJobDir and ReadLedger, the RMW segment
// from the RMW store's Restore (a *logfile.BlockError would do there
// too), JOB from ReadJobMeta, GENMETA from VerifyJobDir, and every CUT
// section from core.VerifyCheckpointDir, whose decode checks each
// section's checksum (still an ErrCheckpointInvalid); a zeroed files
// section fails ckpt.DecodeMeta too (an ErrBadMeta), and a zeroed appmeta
// section core.ReadCheckpointMeta. VerifyJobDir flags every leg but JOB's
// (ReadJobMeta is its first step). Never a shorter result.
func TestScrubBatteryZeroedPageIsFrameError(t *testing.T) {
	tuples := crashTuples(450)
	const every = 79
	for _, leg := range []struct {
		pat     crashPattern
		logical string // what to rot; "" rots the ledger
		section string // the CUT section it names, "" for a file
	}{
		{crashPatterns()[0], "", ""},
		{crashPatterns()[2], "rmw.buf", ckpt.KindDump},
		{crashPatterns()[2], "rmw-segment", ""},
		{crashPatterns()[1], "stat.dlt", ckpt.KindDump},
		{crashPatterns()[1], "aur.live", ckpt.KindLive},
		{crashPatterns()[2], jobMetaName, ""},
		{crashPatterns()[2], genMetaName, ""},
		{crashPatterns()[2], "MANIFEST", "header"},
		{crashPatterns()[2], "SEGMENTS", ckpt.KindFiles},
		{crashPatterns()[2], "APPMETA", ckpt.AppMeta},
	} {
		name := leg.logical
		if name == "" {
			name = ledgerName
		}
		bufBytes := int64(1 << 10)
		if leg.logical == "rmw-segment" {
			bufBytes = 64 // the RMW state spills into segments the cuts link
		}
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			job := &Job{
				Pipeline:        crashPipeline(leg.pat, filepath.Join(base, "state"), nil, bufBytes),
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
			zero := func(path string, off int64) {
				t.Helper()
				if err := faultfs.CorruptAtRest(nil, path, faultfs.CorruptZeroPage, off); err != nil {
					t.Fatal(err)
				}
			}
			var fe *binio.FrameError
			gen := filepath.Join(job.Dir, GenDirName(meta.Gen))
			switch {
			case leg.logical == "":
				if meta.LedgerLen == 0 {
					t.Fatal("nothing committed to the ledger")
				}
				zero(filepath.Join(job.Dir, ledgerName), meta.LedgerLen/2)
				if err := VerifyJobDir(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("VerifyJobDir over a zeroed ledger page: %v, want a FrameError", err)
				}
				if recs, err := ReadLedger(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("ReadLedger over a zeroed ledger page: %d records, %v; want a FrameError", len(recs), err)
				}
			case leg.logical == jobMetaName:
				zero(filepath.Join(job.Dir, jobMetaName), -1)
				if _, err := ReadJobMeta(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("ReadJobMeta over a zeroed JOB page: %v, want a FrameError", err)
				}
			case leg.logical == genMetaName:
				zero(filepath.Join(gen, genMetaName), -1)
				if err := VerifyJobDir(nil, job.Dir); !errors.As(err, &fe) {
					t.Fatalf("VerifyJobDir over a zeroed GENMETA page: %v, want a FrameError", err)
				}
			case leg.logical == "rmw-segment":
				// The first segment file of the committed generation: a
				// worker whose state all fired has none.
				var path string
				err := filepath.WalkDir(gen, func(p string, d fs.DirEntry, err error) error {
					if ok, _ := filepath.Match("inst-*.rmw-*.log.seg-*", d.Name()); err == nil && ok && path == "" {
						if fi, err := d.Info(); err == nil && fi.Size() > 0 {
							path = p
						}
					}
					return err
				})
				if err != nil || path == "" {
					t.Fatalf("%s holds no RMW segment: %v", gen, err)
				}
				zero(path, -1)
				if err := VerifyJobDir(nil, job.Dir); !errors.Is(err, core.ErrCheckpointInvalid) {
					t.Fatalf("VerifyJobDir over a zeroed %s page: %v, want a CheckpointError", path, err)
				}
				c, err := ckpt.ReadCut(faultfs.OS, filepath.Dir(path))
				if err != nil {
					t.Fatal(err)
				}
				inst, _ := strconv.Atoi(filepath.Base(path)[len("inst-"):len("inst-00")])
				st, err := rmw.Open(rmw.Options{Dir: filepath.Join(base, "restored")})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Destroy()
				err = st.Restore(c.Source(filepath.Dir(path), inst))
				if be := (*logfile.BlockError)(nil); !errors.As(err, &fe) && !errors.As(err, &be) {
					t.Fatalf("RMW restore over a zeroed %s page: %v, want a FrameError or BlockError", path, err)
				}
			default:
				cut, sec := cutSectionOf(t, gen, leg.section)
				path := filepath.Join(cut, ckpt.CutName)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				copy(b[sec.Off:sec.Off+min(sec.Len, 4096)], make([]byte, 4096))
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := VerifyJobDir(nil, job.Dir); !errors.Is(err, core.ErrCheckpointInvalid) {
					t.Fatalf("VerifyJobDir over a zeroed %s page: %v, want a CheckpointError", leg.section, err)
				}
				_, _, err = core.VerifyCheckpointDir(nil, cut)
				if !errors.As(err, &fe) || !errors.Is(err, core.ErrCheckpointInvalid) {
					t.Fatalf("VerifyCheckpointDir over a zeroed %s page: %v, want a FrameError and ErrCheckpointInvalid", leg.section, err)
				}
				switch leg.section {
				case ckpt.KindFiles:
					if _, err := ckpt.DecodeMeta(b[sec.Off : sec.Off+sec.Len]); !errors.As(err, &fe) || !errors.Is(err, ckpt.ErrBadMeta) {
						t.Fatalf("DecodeMeta of a zeroed files section: %v, want a FrameError and ErrBadMeta", err)
					}
				case ckpt.AppMeta:
					if _, err := core.ReadCheckpointMeta(nil, cut); !errors.As(err, &fe) {
						t.Fatalf("ReadCheckpointMeta of a zeroed appmeta section: %v, want a FrameError", err)
					}
				}
			}
		})
	}
}

// cutSectionOf finds, in the worker cuts of the generation directory gen,
// the first non-empty section of kind — an instance's, or the appmeta
// section — and returns the cut directory and its table entry. The kind
// "header" names the CUT's header frame.
func cutSectionOf(t *testing.T, gen, kind string) (string, ckpt.Section) {
	t.Helper()
	ents, err := os.ReadDir(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, _, ok := ParseCutDir(e.Name()); !ok || !e.IsDir() {
			continue
		}
		cut := filepath.Join(gen, e.Name())
		c, err := ckpt.ReadCut(faultfs.OS, cut)
		if err != nil {
			t.Fatal(err)
		}
		if kind == "header" {
			return cut, ckpt.Section{Name: kind, Len: c.Sections[0].Off}
		}
		for _, sec := range c.Sections {
			if sec.Len > 0 && (sec.Name == kind || strings.HasPrefix(sec.Name, "inst-") && strings.HasSuffix(sec.Name, "."+kind)) {
				return cut, sec
			}
		}
	}
	t.Fatalf("%s holds no %s section", gen, kind)
	return "", ckpt.Section{}
}
