package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// The randomized crash-recovery harness. Each iteration runs a seeded
// workload against a store whose filesystem is a faultfs.Injector, takes
// a known-good checkpoint, then arms a crash at a random upcoming
// mutating filesystem operation (optionally tearing the write) and keeps
// running — workload plus a second checkpoint — until the fault fires or
// the phase ends. The "machine" then reboots: the injector thaws, a
// fresh store opens over the real filesystem, and recovery restores the
// newest checkpoint that verifies. The restored state must match an
// in-memory oracle snapshotted at that checkpoint: no lost tuples, no
// duplicates, and windows consumed before the checkpoint stay consumed.

// cid identifies one (key, window) state in the oracle.
type cid struct {
	key string
	w   window.Window
}

// crashOracle mirrors store semantics in memory.
type crashOracle struct {
	pattern Pattern

	// AAR: per-window, per-key values in append order.
	aarLive     map[window.Window]map[string][]string
	aarConsumed map[window.Window]bool

	// AUR: per-state values in append order. RMW: latest aggregate.
	vals     map[cid][]string
	aggs     map[cid]string
	consumed map[cid]bool
	live     []cid // AUR states eligible for appends/consumes
}

func newCrashOracle(p Pattern) *crashOracle {
	return &crashOracle{
		pattern:     p,
		aarLive:     make(map[window.Window]map[string][]string),
		aarConsumed: make(map[window.Window]bool),
		vals:        make(map[cid][]string),
		aggs:        make(map[cid]string),
		consumed:    make(map[cid]bool),
	}
}

func (o *crashOracle) clone() *crashOracle {
	c := newCrashOracle(o.pattern)
	for w, keys := range o.aarLive {
		m := make(map[string][]string, len(keys))
		for k, vs := range keys {
			m[k] = append([]string(nil), vs...)
		}
		c.aarLive[w] = m
	}
	for w := range o.aarConsumed {
		c.aarConsumed[w] = true
	}
	for id, vs := range o.vals {
		c.vals[id] = append([]string(nil), vs...)
	}
	for id, a := range o.aggs {
		c.aggs[id] = a
	}
	for id := range o.consumed {
		c.consumed[id] = true
	}
	c.live = append([]cid(nil), o.live...)
	return c
}

// step applies one random operation to both the store and the oracle.
// Store errors are returned untouched: in phase B they are the simulated
// crash. The oracle may then be one half-applied op ahead of the store,
// which is fine — only oracle clones taken at checkpoints are verified.
func (o *crashOracle) step(rng *rand.Rand, s *Store, ctr *int) error {
	*ctr++
	switch o.pattern {
	case PatternAAR:
		return o.stepAAR(rng, s, *ctr)
	case PatternAUR:
		return o.stepAUR(rng, s, *ctr)
	default:
		return o.stepRMW(rng, s, *ctr)
	}
}

func (o *crashOracle) stepAAR(rng *rand.Rand, s *Store, ctr int) error {
	// Active windows advance with the op counter so drained windows
	// eventually fall out of use, like event time moving forward.
	base := int64(ctr / 50)
	if len(o.aarLive) > 0 && rng.Intn(100) < 8 {
		// Full drain of one live window (fetch & remove at trigger). The
		// candidates are sorted so the seed, not map order, picks it.
		var ws []window.Window
		for w := range o.aarLive {
			ws = append(ws, w)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].Before(ws[j]) })
		w := ws[rng.Intn(len(ws))]
		for {
			part, err := s.GetWindow(w)
			if err != nil {
				return err
			}
			if part == nil {
				break
			}
		}
		delete(o.aarLive, w)
		o.aarConsumed[w] = true
		return nil
	}
	w := window.Window{Start: 100 * (base + int64(rng.Intn(2))), End: 0}
	w.End = w.Start + 100
	key := fmt.Sprintf("k%d", rng.Intn(6))
	val := fmt.Sprintf("v%05d", ctr)
	if err := s.Append([]byte(key), []byte(val), w, w.Start); err != nil {
		return err
	}
	if o.aarLive[w] == nil {
		o.aarLive[w] = make(map[string][]string)
		delete(o.aarConsumed, w) // event time may refill a drained window
	}
	o.aarLive[w][key] = append(o.aarLive[w][key], val)
	return nil
}

func (o *crashOracle) stepAUR(rng *rand.Rand, s *Store, ctr int) error {
	if len(o.live) == 0 || rng.Intn(100) < 70 {
		var c cid
		if len(o.live) > 0 && rng.Intn(2) == 0 {
			c = o.live[rng.Intn(len(o.live))]
		} else {
			c = cid{
				key: fmt.Sprintf("s%04d", ctr),
				w:   window.Window{Start: int64(ctr * 10), End: int64(ctr*10 + 100)},
			}
		}
		val := fmt.Sprintf("v%05d", ctr)
		ts := c.w.Start + int64(rng.Intn(50))
		if err := s.Append([]byte(c.key), []byte(val), c.w, ts); err != nil {
			return err
		}
		if _, ok := o.vals[c]; !ok {
			o.live = append(o.live, c)
		}
		o.vals[c] = append(o.vals[c], val)
		return nil
	}
	i := rng.Intn(len(o.live))
	c := o.live[i]
	if _, err := s.Get([]byte(c.key), c.w); err != nil {
		return err
	}
	delete(o.vals, c)
	o.consumed[c] = true
	o.live[i] = o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
	return nil
}

func (o *crashOracle) stepRMW(rng *rand.Rand, s *Store, ctr int) error {
	c := cid{
		key: fmt.Sprintf("r%03d", rng.Intn(60)),
		w:   window.Window{Start: 100 * int64(rng.Intn(2)), End: 0},
	}
	c.w.End = c.w.Start + 100
	if rng.Intn(100) < 70 {
		val := fmt.Sprintf("a%05d", ctr)
		if err := s.PutAggregate([]byte(c.key), c.w, []byte(val)); err != nil {
			return err
		}
		o.aggs[c] = val
		delete(o.consumed, c)
		return nil
	}
	if _, _, err := s.GetAggregate([]byte(c.key), c.w); err != nil {
		return err
	}
	if _, ok := o.aggs[c]; ok {
		delete(o.aggs, c)
		o.consumed[c] = true
	}
	return nil
}

// verify drains the restored store and compares it against an oracle
// snapshot: exact values in order for live state, and nothing at all for
// state consumed before the snapshot.
func (o *crashOracle) verify(t *testing.T, tag string, s *Store) {
	t.Helper()
	switch o.pattern {
	case PatternAAR:
		for w, want := range o.aarLive {
			got := map[string][]string{}
			for {
				part, err := s.GetWindow(w)
				if err != nil {
					t.Fatalf("%s: GetWindow %v: %v", tag, w, err)
				}
				if part == nil {
					break
				}
				for _, kv := range part {
					for _, v := range kv.Values {
						got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: window %v: %d keys, want %d", tag, w, len(got), len(want))
			}
			for k, vs := range want {
				if len(got[k]) != len(vs) {
					t.Fatalf("%s: window %v key %s: %d values, want %d", tag, w, k, len(got[k]), len(vs))
				}
				for i := range vs {
					if got[k][i] != vs[i] {
						t.Fatalf("%s: window %v key %s[%d] = %q, want %q", tag, w, k, i, got[k][i], vs[i])
					}
				}
			}
		}
		for w := range o.aarConsumed {
			if _, live := o.aarLive[w]; live {
				continue
			}
			part, err := s.GetWindow(w)
			if err != nil {
				t.Fatalf("%s: consumed window %v: %v", tag, w, err)
			}
			if part != nil {
				t.Fatalf("%s: consumed window %v resurrected", tag, w)
			}
		}
	case PatternAUR:
		for c, want := range o.vals {
			got, err := s.Get([]byte(c.key), c.w)
			if err != nil {
				t.Fatalf("%s: get %v: %v", tag, c, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: state %v: %d values, want %d", tag, c, len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != want[i] {
					t.Fatalf("%s: state %v[%d] = %q, want %q", tag, c, i, got[i], want[i])
				}
			}
		}
		for c := range o.consumed {
			if _, live := o.vals[c]; live {
				continue
			}
			got, err := s.Get([]byte(c.key), c.w)
			if err != nil {
				t.Fatalf("%s: consumed state %v: %v", tag, c, err)
			}
			if got != nil {
				t.Fatalf("%s: consumed state %v resurrected: %q", tag, c, got)
			}
		}
	default:
		for c, want := range o.aggs {
			got, ok, err := s.GetAggregate([]byte(c.key), c.w)
			if err != nil {
				t.Fatalf("%s: get aggregate %v: %v", tag, c, err)
			}
			if !ok || string(got) != want {
				t.Fatalf("%s: aggregate %v = %q,%v, want %q", tag, c, got, ok, want)
			}
		}
		for c := range o.consumed {
			if _, live := o.aggs[c]; live {
				continue
			}
			_, ok, err := s.GetAggregate([]byte(c.key), c.w)
			if err != nil {
				t.Fatalf("%s: consumed aggregate %v: %v", tag, c, err)
			}
			if ok {
				t.Fatalf("%s: consumed aggregate %v resurrected", tag, c)
			}
		}
	}
}

func crashConfig(p Pattern) (AggKind, window.Kind, Options) {
	switch p {
	case PatternAAR:
		return AggHolistic, window.Fixed, Options{Instances: 2, WriteBufferBytes: 512}
	case PatternAUR:
		return AggHolistic, window.Session, Options{
			Instances:        2,
			WriteBufferBytes: 512,
			Assigner:         window.SessionAssigner{Gap: 100},
		}
	default:
		return AggIncremental, window.Fixed, Options{Instances: 2, WriteBufferBytes: 512}
	}
}

// runCrashIteration runs one seeded workload-crash-recover-verify cycle
// and reports whether the armed fault actually fired.
func runCrashIteration(t *testing.T, pattern Pattern, seed int64) (fired bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inj := faultfs.NewInjector(faultfs.OS)
	base := t.TempDir()
	agg, wk, opts := crashConfig(pattern)
	opts.FS = inj
	opts.Dir = filepath.Join(base, "store")
	st, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newCrashOracle(pattern)
	ctr := 0

	// Phase A: fault-free workload, then a known-good checkpoint.
	for i := 0; i < 120; i++ {
		if err := o.step(rng, st, &ctr); err != nil {
			t.Fatalf("phase A op: %v", err)
		}
	}
	ckpt1 := filepath.Join(base, "ckpt1")
	if err := st.Checkpoint(ckpt1); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	o1 := o.clone()

	// Phase B: crash at a random upcoming mutating fs op, possibly
	// tearing the write it lands on. The window is kept short enough
	// that the fault usually lands inside the workload or the second
	// checkpoint even for RMW, whose write buffering makes mutating fs
	// operations sparse; overshoots exercise the clean-commit path.
	rule := faultfs.Rule{AtOp: inj.Ops() + 1 + rng.Int63n(60), Crash: true}
	if rng.Intn(2) == 0 {
		rule.TornBytes = 1 + rng.Intn(48)
	}
	inj.SetRule(rule)
	var errB error
	for i := 0; i < 120 && errB == nil; i++ {
		errB = o.step(rng, st, &ctr)
	}
	ckpt2 := filepath.Join(base, "ckpt2")
	var o2 *crashOracle
	var ckpt2Err error
	if errB == nil {
		ckpt2Err = st.Checkpoint(ckpt2)
		o2 = o.clone()
	}
	fired = inj.Fired()
	if errB != nil && !fired {
		t.Fatalf("phase B failed without an injected fault: %v", errB)
	}
	_ = st.Close() // the crashed machine's close may itself fail
	inj.Reset()    // reboot: disk thaws with whatever bytes survived

	// Recovery: restore the newest checkpoint that verifies.
	restOpts := opts
	restOpts.FS = nil
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()

	if errB == nil && ckpt2Err == nil {
		if err := fresh.Restore(ckpt2); err != nil {
			t.Fatalf("restore committed ckpt2: %v", err)
		}
		o2.verify(t, "ckpt2", fresh)
		return fired
	}
	switch err := fresh.Restore(ckpt2); {
	case err == nil:
		// The crash hit after the commit rename: the snapshot is whole.
		if o2 == nil {
			t.Fatalf("ckpt2 restorable but checkpoint was never attempted")
		}
		o2.verify(t, "ckpt2-committed", fresh)
	case errors.Is(err, ErrCheckpointInvalid):
		// Rejected as it must be; fall back to the known-good snapshot.
		if err := fresh.Restore(ckpt1); err != nil {
			t.Fatalf("restore ckpt1 fallback: %v", err)
		}
		o1.verify(t, "ckpt1", fresh)
	default:
		t.Fatalf("restore ckpt2: error is not a checkpoint rejection: %v", err)
	}
	return fired
}

// TestCrashRecoveryRandomized is the acceptance harness: ≥200 seeded
// fault-injection iterations across the three store patterns.
func TestCrashRecoveryRandomized(t *testing.T) {
	const seedsPerPattern = 70
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fired := 0
			for seed := int64(0); seed < seedsPerPattern; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					if runCrashIteration(t, p, seed) {
						fired++
					}
				})
			}
			t.Logf("%s: fault fired in %d/%d iterations", p, fired, seedsPerPattern)
			if fired < seedsPerPattern/4 {
				t.Errorf("%s: fault fired in only %d/%d iterations; harness has lost its teeth",
					p, fired, seedsPerPattern)
			}
		})
	}
}

// checkpointedStore builds a store with some state and a committed
// checkpoint, returning both paths for tamper tests.
func checkpointedStore(t *testing.T) (*Store, string) {
	t.Helper()
	opts := Options{Instances: 2, WriteBufferBytes: 512, Assigner: window.SessionAssigner{Gap: 100}}
	s := openStore(t, AggHolistic, window.Session, opts)
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key-%02d", i)
		w := window.Window{Start: int64(i * 10), End: int64(i*10) + 100}
		if err := s.Append([]byte(k), []byte(fmt.Sprintf("%s/v", k)), w, int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	return s, ckpt
}

func restoreInto(t *testing.T, ckpt string) error {
	t.Helper()
	opts := Options{Instances: 2, WriteBufferBytes: 512, Assigner: window.SessionAssigner{Gap: 100}}
	opts.Dir = filepath.Join(t.TempDir(), "restored")
	dst, err := Open(AggHolistic, window.Session, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Destroy() })
	return dst.Restore(ckpt)
}

// pickDataFile returns some segment file inside the checkpoint, the CUT
// when it holds none.
func pickDataFile(t *testing.T, dir string) string {
	t.Helper()
	found := filepath.Join(dir, ckpt.CutName)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && e.Name() != ckpt.CutName && info.Size() > 0 {
			return filepath.Join(dir, e.Name())
		}
	}
	return found
}

func TestRestoreRejectsTruncatedFile(t *testing.T) {
	_, ckpt := checkpointedStore(t)
	f := pickDataFile(t, ckpt)
	info, err := os.Stat(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(f, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	err = restoreInto(t, ckpt)
	if !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of truncated checkpoint: %v, want ErrCheckpointInvalid", err)
	}
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CheckpointError", err)
	}
}

func TestRestoreRejectsBitFlip(t *testing.T) {
	_, ckpt := checkpointedStore(t)
	f := pickDataFile(t, ckpt)
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(f, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restoreInto(t, ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of bit-flipped checkpoint: %v, want ErrCheckpointInvalid", err)
	}
}

// cutName is ckpt.CutName, for the tests whose checkpoint directory is a
// local named ckpt.
const cutName = ckpt.CutName

func TestRestoreRejectsMissingManifest(t *testing.T) {
	_, ckpt := checkpointedStore(t)
	if err := os.Remove(filepath.Join(ckpt, cutName)); err != nil {
		t.Fatal(err)
	}
	if err := restoreInto(t, ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore without a CUT: %v, want ErrCheckpointInvalid", err)
	}
}

func TestRestoreRejectsUnlistedFile(t *testing.T) {
	_, ckpt := checkpointedStore(t)
	if err := os.WriteFile(filepath.Join(ckpt, "stray.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restoreInto(t, ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore with unlisted file: %v, want ErrCheckpointInvalid", err)
	}
}

func TestRestoreRejectsMissingCheckpoint(t *testing.T) {
	if err := restoreInto(t, filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of missing dir: %v, want ErrCheckpointInvalid", err)
	}
}

// TestCheckpointFailureLeavesNoPartialState covers the satellite fix: a
// checkpoint that fails partway must neither leave its tmp directory
// behind nor disturb the previous committed checkpoint.
func TestCheckpointFailureLeavesNoPartialState(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	base := t.TempDir()
	opts := Options{
		Instances:        2,
		WriteBufferBytes: 512,
		Assigner:         window.SessionAssigner{Gap: 100},
		FS:               inj,
		Dir:              filepath.Join(base, "store"),
	}
	s, err := Open(AggHolistic, window.Session, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	o := newCrashOracle(PatternAUR)
	rng := rand.New(rand.NewSource(1))
	ctr := 0
	for i := 0; i < 60; i++ {
		if err := o.step(rng, s, &ctr); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(base, "ckpt")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	o1 := o.clone()

	for i := 0; i < 60; i++ {
		if err := o.step(rng, s, &ctr); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the checkpoint while it is writing into the tmp directory
	// (no crash: the process lives on and must clean up).
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".tmp"})
	if err := s.Checkpoint(ckpt); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with injected tmp-write failure: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed checkpoint left %s behind", ckpt+".tmp")
	}
	// The previous committed checkpoint still verifies and restores.
	restOpts := opts
	restOpts.FS = nil
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(AggHolistic, window.Session, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if err := fresh.Restore(ckpt); err != nil {
		t.Fatalf("previous checkpoint no longer restores: %v", err)
	}
	o1.verify(t, "previous-ckpt", fresh)
}

// TestFailedCommitRenameKeepsPrevious: a checkpoint over an existing one
// whose commit rename (tmp onto dir) fails puts the previous checkpoint,
// moved aside to dir.old, back at dir. And when a crash left it at dir.old
// with dir missing, the next checkpoint puts it back before clearing
// anything, so a failure of that checkpoint too still leaves it
// restorable at dir.
func TestFailedCommitRenameKeepsPrevious(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	base := t.TempDir()
	agg, wk, opts := crashConfig(PatternAUR)
	opts.FS = inj
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	o := newCrashOracle(PatternAUR)
	rng := rand.New(rand.NewSource(5))
	ctr := 0
	steps := func() {
		t.Helper()
		for i := 0; i < 60; i++ {
			if err := o.step(rng, s, &ctr); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps()
	dir := filepath.Join(base, "ckpt")
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	at := o.clone()
	restores := func(leg string) {
		t.Helper()
		if _, err := os.Stat(dir + ".old"); !os.IsNotExist(err) {
			t.Errorf("%s: %s.old is still there: %v", leg, dir, err)
		}
		ropts := opts
		ropts.FS = nil
		ropts.Dir = filepath.Join(t.TempDir(), "restored")
		fresh, err := Open(agg, wk, ropts)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Destroy()
		if err := fresh.Restore(dir); err != nil {
			t.Fatalf("%s: the previous checkpoint does not restore: %v", leg, err)
		}
		at.verify(t, leg, fresh)
	}

	// The first rename moves dir aside, the second commits tmp onto it.
	steps()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpRename, Nth: 2})
	if err := s.Checkpoint(dir); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with a failed commit rename: %v", err)
	}
	inj.Reset()
	restores("failed-commit-rename")

	// A crash between the two renames leaves the checkpoint at dir.old;
	// the next checkpoint fails too, writing its staging directory.
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".tmp"})
	if err := s.Checkpoint(dir); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with a failed staging write: %v", err)
	}
	inj.Reset()
	restores("found-at-old")
}
