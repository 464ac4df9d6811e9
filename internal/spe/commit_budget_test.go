package spe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// countFS counts what a job's commits cost the filesystem: file fsyncs,
// directory fsyncs and mkdirs, and the files created inside each worker
// cut's staging directory.
type countFS struct {
	faultfs.FS
	mu                      sync.Mutex
	fsyncs, dirSyncs, mkdir int
	cutFiles                map[string][]string // by cut staging directory
}

func newCountFS() *countFS {
	return &countFS{FS: faultfs.OS, cutFiles: make(map[string][]string)}
}

type countFile struct {
	faultfs.File
	c *countFS
}

func (f countFile) Sync() error {
	f.c.mu.Lock()
	f.c.fsyncs++
	f.c.mu.Unlock()
	return f.File.Sync()
}

func (c *countFS) Create(path string) (faultfs.File, error) {
	dir := filepath.Dir(path)
	if _, _, ok := ParseCutDir(strings.TrimSuffix(filepath.Base(dir), ".tmp")); ok {
		c.mu.Lock()
		c.cutFiles[dir] = append(c.cutFiles[dir], filepath.Base(path))
		c.mu.Unlock()
	}
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) SyncDir(path string) error {
	c.mu.Lock()
	c.dirSyncs++
	c.mu.Unlock()
	return c.FS.SyncDir(path)
}

func (c *countFS) MkdirAll(path string, perm os.FileMode) error {
	c.mu.Lock()
	c.mkdir++
	c.mu.Unlock()
	return c.FS.MkdirAll(path, perm)
}

// commitBudget is what one commit of the crash pipeline may cost at most:
// file fsyncs, directory fsyncs and mkdirs, averaged over a run.
type commitBudget struct{ fsyncs, dirSyncs, mkdirs float64 }

// TestCommitBudget runs the crash pipeline — two window workers of two
// store instances each, a commit every 61 of 2 000 tuples — over a
// counting filesystem, and pins what a commit costs: every worker cut
// creates exactly one file that is not a segment, its CUT, and the
// fsyncs, directory syncs and mkdirs per commit stay within a little of
// what was measured when the CUT layout landed (fsyncs AAR 7.7, AUR 9.5 to
// 9.8, RMW 6.7 to 7.2, varying with flush timing; 6 directory syncs; 2.3
// mkdirs). The layout before it cost 13.7, 21.6 and 18.9 fsyncs, 10
// directory syncs and 6.3 mkdirs.
func TestCommitBudget(t *testing.T) {
	tuples := crashTuples(2000)
	budgets := map[string]commitBudget{
		"AAR": {fsyncs: 8, dirSyncs: 6, mkdirs: 2.5},
		"AUR": {fsyncs: 10.5, dirSyncs: 6, mkdirs: 2.5},
		"RMW": {fsyncs: 8, dirSyncs: 6, mkdirs: 2.5},
	}
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			base := t.TempDir()
			fsys := newCountFS()
			res, err := (&Job{
				Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), fsys, 1<<10),
				Source:          NewSliceSource(tuples),
				Dir:             filepath.Join(base, "job"),
				FS:              fsys,
				CheckpointEvery: 61,
			}).Run()
			if err != nil || !res.Final {
				t.Fatalf("run: %v", err)
			}
			n := float64(res.Checkpoints)
			got := commitBudget{float64(fsys.fsyncs) / n, float64(fsys.dirSyncs) / n, float64(fsys.mkdir) / n}
			t.Logf("%d commits: %.1f fsyncs, %.1f directory syncs, %.1f mkdirs a commit", res.Checkpoints, got.fsyncs, got.dirSyncs, got.mkdirs)
			if want := budgets[pat.name]; got.fsyncs > want.fsyncs || got.dirSyncs > want.dirSyncs || got.mkdirs > want.mkdirs {
				t.Errorf("a commit costs %+v, over the budget %+v", got, want)
			}
			if cuts := len(fsys.cutFiles); int64(cuts) != 2*res.Checkpoints {
				t.Errorf("%d worker cuts created files over %d commits of two workers", cuts, res.Checkpoints)
			}
			for dir, names := range fsys.cutFiles {
				var meta []string
				for _, name := range names {
					if !strings.HasPrefix(name, "inst-") {
						meta = append(meta, name)
					}
				}
				if len(meta) != 1 || meta[0] != ckpt.CutName {
					t.Fatalf("cut %s created %v besides its files, want only %s", dir, meta, ckpt.CutName)
				}
			}
		})
	}
}

// armAtCommit wraps a crash injector: when the job starts committing
// generation gen — its first step clears the generation directory — it
// arms a crash at the commit's op-th mutating operation (0 is that clear
// itself), once. With op < 0 it only records the mutating-op count at the
// start of the commit and at its JOB rename, the commit point.
type armAtCommit struct {
	*faultfs.Injector
	gen, op    int64
	mu         sync.Mutex
	armed      bool
	start, end int64
}

func (a *armAtCommit) RemoveAll(path string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.armed && filepath.Base(path) == GenDirName(a.gen) {
		a.armed = true
		a.start = a.Ops() + 1
		if a.op >= 0 {
			a.SetRule(faultfs.Rule{AtOp: a.start + a.op, Crash: true})
		}
	}
	return a.Injector.RemoveAll(path)
}

func (a *armAtCommit) Rename(oldpath, newpath string) error {
	err := a.Injector.Rename(oldpath, newpath)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.armed && a.end == 0 && filepath.Base(newpath) == jobMetaName {
		a.end = a.Ops()
	}
	return err
}

// TestCrashPointsOfOneCommit crashes the filesystem at every mutating
// operation of one mid-run commit in turn — from clearing its generation
// directory to renaming its JOB record — and requires each crashed run to
// resume to the golden ledger byte for byte. Every operation of the
// commit is a crash point, on all three patterns.
func TestCrashPointsOfOneCommit(t *testing.T) {
	tuples := crashTuples(400)
	const every, gen = 61, 3
	for _, pat := range crashPatterns() {
		pat := pat
		t.Run(pat.name, func(t *testing.T) {
			t.Parallel()
			golden := goldenLedger(t, pat, tuples, every, 1<<10)
			run := func(op int64) (*armAtCommit, error) {
				base := t.TempDir()
				fsys := &armAtCommit{Injector: faultfs.NewInjector(faultfs.OS), gen: gen, op: op}
				mk := func(int64) *Job {
					return &Job{
						Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), fsys, 1<<10),
						Source:          NewSliceSource(tuples),
						Dir:             filepath.Join(base, "job"),
						FS:              fsys,
						CheckpointEvery: every,
					}
				}
				_, err := mk(0).Run()
				if op >= 0 {
					if err == nil || !fsys.Fired() {
						return fsys, fmt.Errorf("crash at op %d of the commit: run error %v, fired %v", op, err, fsys.Fired())
					}
					fsys.Reset()
					resumeToFinal(t, mk, golden)
					return fsys, nil
				}
				return fsys, err
			}
			probe, err := run(-1)
			if err != nil {
				t.Fatal(err)
			}
			ops := probe.end - probe.start + 1
			if probe.end == 0 || ops < 5 {
				t.Fatalf("commit of generation %d spans ops %d..%d", gen, probe.start, probe.end)
			}
			for op := int64(0); op < ops; op++ {
				if _, err := run(op); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("crashed at each of the %d mutating operations of commit %d", ops, gen)
		})
	}
}
