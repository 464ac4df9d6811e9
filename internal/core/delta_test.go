package core

// The incremental-checkpoint battery. The contract under test: a chain
// of N delta checkpoints restores byte-identically to a self-contained
// base checkpoint taken at the same cut (and to the live store's own
// state at that cut), every chain link is physically self-contained
// (ancestors may be deleted freely), link-refusing filesystems silently
// degrade to copies, and crashes pinned inside the delta machinery
// itself — mid-link, mid-group-commit, mid-parent-resolution — never lose
// a committed cut.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// stateDump flattens a store into a canonical map via ForEachState
// (non-destructive), one entry per (key, window) carrying the exact
// value bytes in order, the RMW aggregate, and the AUR max event
// timestamp — so two dumps compare byte-identical state, not just
// equal-looking state.
func stateDump(t *testing.T, s *Store) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := s.ForEachState(func(e StateEntry) error {
		id := fmt.Sprintf("%s@[%d,%d)", e.Key, e.Window.Start, e.Window.End)
		var vals []string
		if e.HasAgg {
			vals = append(vals, "agg:"+string(e.Agg))
		}
		for _, v := range e.Values {
			vals = append(vals, string(v))
		}
		vals = append(vals, fmt.Sprintf("maxts:%d", e.MaxTS))
		if _, dup := out[id]; dup {
			return fmt.Errorf("duplicate state entry %s", id)
		}
		out[id] = vals
		return nil
	})
	if err != nil {
		t.Fatalf("state dump: %v", err)
	}
	return out
}

// restoreDelta opens a fresh store with the given shape over the real
// filesystem and restores the checkpoint into it.
func restoreDelta(t *testing.T, agg AggKind, wk window.Kind, opts Options, ck string) *Store {
	t.Helper()
	opts.FS = nil
	opts.Dir = filepath.Join(t.TempDir(), "restored")
	dst, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Destroy() })
	if err := dst.Restore(ck); err != nil {
		t.Fatalf("restore %s: %v", ck, err)
	}
	return dst
}

// TestDeltaChainRestoreMatchesFull is the chain-restore property test:
// for a random workload, restoring the tip of an N-link incremental
// chain yields a ForEachState dump byte-identical to restoring a
// parentless base checkpoint taken at the same cut and to the live
// store's own dump at that cut — even after every ancestor directory has
// been deleted, since hard links make each link self-contained. Run with
// group commit on and off so both sync schedules are covered.
func TestDeltaChainRestoreMatchesFull(t *testing.T) {
	const links = 6
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		for _, mode := range []string{"group", "per-file-sync"} {
			p, mode := p, mode
			t.Run(fmt.Sprintf("%v/%s", p, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(p)*31 + int64(len(mode))))
				agg, wk, opts := crashConfig(p)
				opts.DisableGroupCommit = mode == "per-file-sync"
				s := openStore(t, agg, wk, opts)
				o := newCrashOracle(p)
				ctr := 0
				base := t.TempDir()
				var chain []string
				parent := ""
				for n := 0; n <= links; n++ {
					for i := 0; i < 40; i++ {
						if err := o.step(rng, s, &ctr); err != nil {
							t.Fatalf("op: %v", err)
						}
					}
					ck := filepath.Join(base, fmt.Sprintf("gen-%02d", n))
					if err := s.CheckpointDelta(ck, parent, nil); err != nil {
						t.Fatalf("delta checkpoint %d: %v", n, err)
					}
					chain = append(chain, ck)
					parent = ck
				}
				// A parentless base at the exact same cut (no ops between),
				// and the live store's own view of that cut.
				full := filepath.Join(base, "full")
				if err := s.Checkpoint(full); err != nil {
					t.Fatal(err)
				}
				live := stateDump(t, s)
				if st := s.Stats(); st.CkptLinkedBytes == 0 {
					t.Errorf("a %d-link chain hard-linked no bytes — every commit re-copied the store", links)
				}
				tip := chain[len(chain)-1]

				fromFull := restoreDelta(t, agg, wk, opts, full)
				want := stateDump(t, fromFull)
				if !reflect.DeepEqual(want, live) {
					t.Fatalf("base restore diverges from the live store: %d entries vs %d", len(want), len(live))
				}
				// Delete every ancestor before restoring the tip: links keep
				// the shared inodes alive, so the tip must not notice.
				for _, ck := range chain[:len(chain)-1] {
					if err := os.RemoveAll(ck); err != nil {
						t.Fatal(err)
					}
				}
				fromChain := restoreDelta(t, agg, wk, opts, tip)
				got := stateDump(t, fromChain)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chain restore diverges from full restore: %d entries vs %d", len(got), len(want))
				}
				// Both restored stores also satisfy the workload oracle
				// (exact values in order, consumed state stays consumed).
				o.verify(t, "chain-restore", fromChain)
				o.verify(t, "full-restore", fromFull)
			})
		}
	}
}

// TestDeltaCrashRecoveryRandomized is the delta leg of the crash
// battery: each iteration builds a two-link chain fault-free, then arms
// a crash pinned at a specific point of the *next* incremental commit —
// the first hard link, the group-commit sync window, the parent CUT
// resolution — or at a random mutating op, and after the reboot the
// newest checkpoint that verifies must restore exactly the oracle state
// at its cut. 25 seeds × 4 pins = 100 iterations per pattern.
func TestDeltaCrashRecoveryRandomized(t *testing.T) {
	const seedsPerPin = 25
	pins := []string{"mid-link", "mid-group-commit", "mid-parent-resolution", "random"}
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, pin := range pins {
				pin := pin
				t.Run(pin, func(t *testing.T) {
					fired := 0
					for seed := int64(0); seed < seedsPerPin; seed++ {
						seed := seed
						t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
							if runDeltaCrashIteration(t, p, seed, pin) {
								fired++
							}
						})
					}
					t.Logf("%s/%s: fault fired in %d/%d iterations", p, pin, fired, seedsPerPin)
					// The targeted pins hit deterministic machinery; only the
					// random pin may legitimately overshoot the workload.
					min := seedsPerPin / 2
					if pin == "random" {
						min = seedsPerPin / 4
					}
					if fired < min {
						t.Errorf("%s/%s: fault fired in only %d/%d iterations; pin has lost its teeth",
							p, pin, fired, seedsPerPin)
					}
				})
			}
		})
	}
}

// writeAnchors gives a store long-lived state in a window far outside the
// crash oracle's range, so that every delta commit of the oracle's
// workload has a parent segment to hard-link: the AAR workload can churn
// through every oracle window between two cuts, and the AUR and RMW
// workloads consume state about as fast as they create it — without the
// anchors the tombstones of a cut can outnumber the identities it leaves
// clean, and the replay stream is then rebased instead of extended
// (ckpt.Marks.BaseIsCheaper). More anchors than a phase has operations
// keeps the clean identities in the majority.
func writeAnchors(s *Store, p Pattern) error {
	aw := window.Window{Start: 1 << 30, End: 1<<30 + 100}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("anchor-%02d", i))
		var err error
		if p == PatternRMW {
			err = s.PutAggregate(key, aw, []byte("a"))
		} else {
			err = s.Append(key, []byte("a"), aw, aw.Start)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runDeltaCrashIteration(t *testing.T, pattern Pattern, seed int64, pin string) (fired bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*4 + int64(len(pin))))
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

	// Phase A: fault-free workload and a committed two-link chain, so the
	// upcoming crash lands on a commit that actually links, group-syncs,
	// and resolves a parent.
	if err := writeAnchors(st, pattern); err != nil {
		t.Fatalf("anchor write: %v", err)
	}
	for i := 0; i < 120; i++ {
		if err := o.step(rng, st, &ctr); err != nil {
			t.Fatalf("phase A op: %v", err)
		}
	}
	ck1 := filepath.Join(base, "ck1")
	if err := st.CheckpointDelta(ck1, "", nil); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := o.step(rng, st, &ctr); err != nil {
			t.Fatalf("phase A op: %v", err)
		}
	}
	ck2 := filepath.Join(base, "ck2")
	if err := st.CheckpointDelta(ck2, ck1, nil); err != nil {
		t.Fatalf("delta checkpoint: %v", err)
	}
	o2 := o.clone()

	// Phase B: arm the pinned crash, keep working, attempt a third link.
	var rule faultfs.Rule
	switch pin {
	case "mid-link":
		// The first hard link of the next commit: the snapshot dies while
		// reusing the parent's sealed segments.
		rule = faultfs.Rule{Op: faultfs.OpLink, Crash: true}
	case "mid-group-commit":
		// The batched sync window over the staging directory: files are
		// written but their durability wave never completes.
		rule = faultfs.Rule{Op: faultfs.OpSync, PathContains: ".tmp", Crash: true}
	case "mid-parent-resolution":
		// Reading the parent's CUT: resolution must fail toward a full
		// copy, and the frozen disk then kills the attempt — never
		// yielding a half-resolved chain.
		rule = faultfs.Rule{Op: faultfs.OpRead, PathContains: ckpt.CutName, Crash: true}
	default:
		// A random upcoming mutating op. The window is sized to the RMW
		// leg, whose commits issue the fewest fs ops (a cut's replay-stream
		// segment goes out in chunked writes, not one per record), so the
		// crash lands inside the workload or the third commit on every
		// pattern.
		rule = faultfs.Rule{AtOp: inj.Ops() + 1 + rng.Int63n(30), Crash: true}
		if rng.Intn(2) == 0 {
			rule.TornBytes = 1 + rng.Intn(48)
		}
	}
	inj.SetRule(rule)
	var errB error
	for i := 0; i < 60 && errB == nil; i++ {
		errB = o.step(rng, st, &ctr)
	}
	ck3 := filepath.Join(base, "ck3")
	var o3 *crashOracle
	var ck3Err error
	if errB == nil {
		ck3Err = st.CheckpointDelta(ck3, ck2, nil)
		o3 = o.clone()
	}
	fired = inj.Fired()
	if errB != nil && !fired {
		t.Fatalf("phase B failed without an injected fault: %v", errB)
	}
	_ = st.Close() // the crashed machine's close may itself fail
	inj.Reset()    // reboot: disk thaws with whatever bytes survived

	restOpts := opts
	restOpts.FS = nil
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()

	if errB == nil && ck3Err == nil {
		if err := fresh.Restore(ck3); err != nil {
			t.Fatalf("restore committed ck3: %v", err)
		}
		o3.verify(t, "ck3", fresh)
		return fired
	}
	switch err := fresh.Restore(ck3); {
	case err == nil:
		// The crash hit after the commit rename: the snapshot is whole.
		if o3 == nil {
			t.Fatalf("ck3 restorable but checkpoint was never attempted")
		}
		o3.verify(t, "ck3-committed", fresh)
	case errors.Is(err, ErrCheckpointInvalid):
		// Rejected as it must be; the previously committed link of the
		// chain is untouched by the failed attempt.
		if err := fresh.Restore(ck2); err != nil {
			t.Fatalf("restore ck2 fallback: %v", err)
		}
		o2.verify(t, "ck2", fresh)
	default:
		t.Fatalf("restore ck3: error is not a checkpoint rejection: %v", err)
	}
	return fired
}

// nolinkFS refuses hard links, like filesystems without link support or
// checkpoint targets on another device; everything else passes through.
type nolinkFS struct{ faultfs.FS }

func (nolinkFS) Link(oldpath, newpath string) error {
	return errors.New("nolink: hard links not supported")
}

// TestDeltaNoHardlinkFSCopyFallback proves the copy fallback end to end:
// on a filesystem that refuses every link, a chain of delta checkpoints
// still commits, links nothing, copies everything — and the tip is an
// independently restorable checkpoint whose state is byte-identical to a
// parentless base checkpoint at the same cut and to the live store.
func TestDeltaNoHardlinkFSCopyFallback(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p) + 99))
			agg, wk, opts := crashConfig(p)
			opts.FS = nolinkFS{faultfs.OS}
			s := openStore(t, agg, wk, opts)
			o := newCrashOracle(p)
			ctr := 0
			base := t.TempDir()
			parent := ""
			var chain []string
			for n := 0; n < 3; n++ {
				for i := 0; i < 40; i++ {
					if err := o.step(rng, s, &ctr); err != nil {
						t.Fatalf("op: %v", err)
					}
				}
				ck := filepath.Join(base, fmt.Sprintf("gen-%02d", n))
				if err := s.CheckpointDelta(ck, parent, nil); err != nil {
					t.Fatalf("delta checkpoint on linkless fs: %v", err)
				}
				chain = append(chain, ck)
				parent = ck
			}
			full := filepath.Join(base, "full")
			if err := s.Checkpoint(full); err != nil {
				t.Fatal(err)
			}
			live := stateDump(t, s)
			st := s.Stats()
			if st.CkptLinkedBytes != 0 {
				t.Errorf("linked %d bytes through a filesystem that refuses links", st.CkptLinkedBytes)
			}
			if st.CkptCopiedBytes == 0 {
				t.Errorf("copy fallback copied nothing")
			}
			fromFull := restoreDelta(t, agg, wk, opts, full)
			want := stateDump(t, fromFull)
			if !reflect.DeepEqual(want, live) {
				t.Fatalf("base restore diverges from the live store: %d entries vs %d", len(want), len(live))
			}
			for _, ck := range chain[:len(chain)-1] {
				if err := os.RemoveAll(ck); err != nil {
					t.Fatal(err)
				}
			}
			tip := chain[len(chain)-1]
			if _, _, err := VerifyCheckpointDir(nil, tip); err != nil {
				t.Fatalf("copied tip fails verification: %v", err)
			}
			fromChain := restoreDelta(t, agg, wk, opts, tip)
			if got := stateDump(t, fromChain); !reflect.DeepEqual(got, want) {
				t.Fatalf("copied-chain restore diverges from full restore: %d entries vs %d", len(got), len(want))
			}
			o.verify(t, "nolink-chain", fromChain)
		})
	}
}

// TestDeltaEmptyInstanceThenGrow: a parent checkpoint of instances whose
// logs are still empty, or that have none, is a valid parent for a child
// whose instances have grown logs since. One key routes state to a single
// instance, leaving the rest empty at the base; the chain then grows into
// them. (It was the regression test of a collision between a parent's
// zero-length piece of a log and the child's first piece, named by their
// offsets; whole files named by their logs cannot collide.)
func TestDeltaEmptyInstanceThenGrow(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			agg, wk, opts := crashConfig(p)
			opts.Instances = 4
			s := openStore(t, agg, wk, opts)
			w := window.Window{Start: 0, End: 100}
			put := func(i int) {
				t.Helper()
				key := []byte(fmt.Sprintf("key-%03d", i))
				val := []byte(fmt.Sprintf("val-%03d", i))
				var err error
				if p == PatternRMW {
					err = s.PutAggregate(key, w, val)
				} else {
					err = s.Append(key, val, w, w.Start)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			put(0)
			base := t.TempDir()
			ck1 := filepath.Join(base, "gen-01")
			if err := s.CheckpointDelta(ck1, "", nil); err != nil {
				t.Fatalf("base over mostly-empty instances: %v", err)
			}
			for i := 0; i < 60; i++ {
				put(i)
			}
			ck2 := filepath.Join(base, "gen-02")
			if err := s.CheckpointDelta(ck2, ck1, nil); err != nil {
				t.Fatalf("delta growing into empty instances: %v", err)
			}
			if _, _, err := VerifyCheckpointDir(nil, ck2); err != nil {
				t.Fatalf("child checkpoint fails verification: %v", err)
			}
			fresh := restoreDelta(t, agg, wk, opts, ck2)
			dump := stateDump(t, fresh)
			if len(dump) == 0 {
				t.Fatal("restored store is empty")
			}
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("key-%03d@[%d,%d)", i, w.Start, w.End)
				if _, ok := dump[id]; !ok {
					t.Fatalf("restored store lost %s", id)
				}
			}
		})
	}
}
