package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// reopenFromCheckpoint checkpoints src, opens a fresh store with the same
// configuration in a new directory, and restores the checkpoint into it.
func reopenFromCheckpoint(t *testing.T, src *Store, agg AggKind, wk window.Kind, opts Options) *Store {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := src.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	opts.Dir = filepath.Join(t.TempDir(), "restored")
	dst, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Destroy() })
	if err := dst.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestCheckpointRestoreAAR(t *testing.T) {
	opts := Options{Instances: 2, WriteBufferBytes: 1024}
	src := openStore(t, AggHolistic, window.Fixed, opts)
	w1 := window.Window{Start: 0, End: 100}
	w2 := window.Window{Start: 100, End: 200}
	for i := 0; i < 50; i++ {
		src.Append([]byte(fmt.Sprintf("k%02d", i%8)), []byte(fmt.Sprintf("v%02d", i)), w1, int64(i))
		src.Append([]byte(fmt.Sprintf("k%02d", i%8)), []byte("second"), w2, int64(i))
	}
	dst := reopenFromCheckpoint(t, src, AggHolistic, window.Fixed, opts)

	for _, w := range []window.Window{w1, w2} {
		want := drainAAR(t, src, w)
		got := drainAAR(t, dst, w)
		if len(got) != len(want) {
			t.Fatalf("window %v: %d keys, want %d", w, len(got), len(want))
		}
		for k, vs := range want {
			if len(got[k]) != len(vs) {
				t.Fatalf("window %v key %s: %d values, want %d", w, k, len(got[k]), len(vs))
			}
			for i := range vs {
				if got[k][i] != vs[i] {
					t.Fatalf("window %v key %s[%d]: %q want %q", w, k, i, got[k][i], vs[i])
				}
			}
		}
	}
}

func drainAAR(t *testing.T, s *Store, w window.Window) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for {
		part, err := s.GetWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if part == nil {
			return out
		}
		for _, kv := range part {
			for _, v := range kv.Values {
				out[string(kv.Key)] = append(out[string(kv.Key)], string(v))
			}
		}
	}
}

func TestCheckpointRestoreAUR(t *testing.T) {
	opts := Options{
		Instances:        2,
		WriteBufferBytes: 512,
		Assigner:         window.SessionAssigner{Gap: 100},
	}
	src := openStore(t, AggHolistic, window.Session, opts)
	type st8 struct {
		key string
		w   window.Window
		n   int
	}
	var states []st8
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key-%02d", i)
		w := window.Window{Start: int64(i * 10), End: int64(i*10) + 100}
		n := 1 + i%4
		for j := 0; j < n; j++ {
			if err := src.Append([]byte(k), []byte(fmt.Sprintf("%s/%d", k, j)), w, int64(i*10+j)); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, st8{key: k, w: w, n: n})
	}
	// Consume half before the checkpoint: consumed state must NOT
	// resurrect after restore.
	for _, s0 := range states[:20] {
		vals, err := src.Get([]byte(s0.key), s0.w)
		if err != nil || len(vals) != s0.n {
			t.Fatalf("pre-ckpt get %s: %d,%v", s0.key, len(vals), err)
		}
	}
	dst := reopenFromCheckpoint(t, src, AggHolistic, window.Session, opts)
	for i, s0 := range states {
		vals, err := dst.Get([]byte(s0.key), s0.w)
		if err != nil {
			t.Fatal(err)
		}
		if i < 20 {
			if vals != nil {
				t.Fatalf("consumed state %s resurrected: %q", s0.key, vals)
			}
			continue
		}
		if len(vals) != s0.n {
			t.Fatalf("state %s: %d values, want %d", s0.key, len(vals), s0.n)
		}
		for j, v := range vals {
			if string(v) != fmt.Sprintf("%s/%d", s0.key, j) {
				t.Fatalf("state %s value %d = %q", s0.key, j, v)
			}
		}
	}
	// Restored stores keep working: appends and predictive reads resume.
	w := window.Window{Start: 9999, End: 10099}
	if err := dst.Append([]byte("post"), []byte("restore"), w, 9999); err != nil {
		t.Fatal(err)
	}
	vals, err := dst.Get([]byte("post"), w)
	if err != nil || len(vals) != 1 {
		t.Fatalf("post-restore append/get: %q %v", vals, err)
	}
}

func TestCheckpointRestoreRMW(t *testing.T) {
	opts := Options{Instances: 3, WriteBufferBytes: 256}
	src := openStore(t, AggIncremental, window.Fixed, opts)
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if err := src.PutAggregate(k, w, []byte(fmt.Sprintf("agg-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Consume some aggregates pre-checkpoint.
	for i := 0; i < 15; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if _, ok, err := src.GetAggregate(k, w); !ok || err != nil {
			t.Fatal(err)
		}
	}
	dst := reopenFromCheckpoint(t, src, AggIncremental, window.Fixed, opts)
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		agg, ok, err := dst.GetAggregate(k, w)
		if err != nil {
			t.Fatal(err)
		}
		if i < 15 {
			if ok {
				t.Fatalf("consumed aggregate key-%02d resurrected", i)
			}
			continue
		}
		if !ok || string(agg) != fmt.Sprintf("agg-%02d", i) {
			t.Fatalf("key-%02d: %q,%v", i, agg, ok)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	// Two stores with identical options must route identically — the
	// property checkpoint restore relies on.
	a := openStore(t, AggIncremental, window.Fixed, Options{Instances: 4})
	b := openStore(t, AggIncremental, window.Fixed, Options{Instances: 4})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if a.route(k) != b.route(k) {
			t.Fatalf("routing differs for %s", k)
		}
	}
}

func TestRestoreRejectsNonEmpty(t *testing.T) {
	opts := Options{Instances: 1, Assigner: window.SessionAssigner{Gap: 100}}
	src := openStore(t, AggHolistic, window.Session, opts)
	w := window.Window{Start: 0, End: 100}
	src.Append([]byte("k"), []byte("v"), w, 0)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := src.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// src itself is non-empty: restoring into it must fail.
	if err := src.Restore(ckpt); err == nil {
		t.Error("restore into non-empty store should fail")
	}
}

// TestRestoreRejectsInstanceWithoutSegments: an instance with no files
// section describes no reassemblable state, and restoring it as "nothing
// there" would silently drop everything the instance held. The CUT is
// re-stamped without the section so the CRC walk alone cannot be what
// rejects it. A later checkpoint may still name the directory as its
// parent: a parent whose CUT does not decode is not reused, and the
// result is self-contained and restorable.
func TestRestoreRejectsInstanceWithoutSegments(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			agg, wk, opts := crashConfig(p)
			s := openStore(t, agg, wk, opts)
			rng := rand.New(rand.NewSource(int64(p) + 7))
			o := newCrashOracle(p)
			ctr := 0
			for i := 0; i < 60; i++ {
				if err := o.step(rng, s, &ctr); err != nil {
					t.Fatal(err)
				}
			}
			base := t.TempDir()
			ck := filepath.Join(base, "gen-01")
			if err := s.CheckpointWithMeta(ck, []byte("meta")); err != nil {
				t.Fatal(err)
			}
			c, err := ckpt.ReadCut(faultfs.OS, ck)
			if err != nil {
				t.Fatal(err)
			}
			w, err := ckpt.Create(faultfs.OS, ck, c.Header)
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range c.Sections {
				if b, _ := c.Section(sec.Name); sec.Name != ckpt.InstPrefix(0)+ckpt.KindFiles {
					w.Put(sec.Name, b)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			opts.Dir = filepath.Join(t.TempDir(), "restored")
			dst, err := Open(agg, wk, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Destroy()
			if err := dst.Restore(ck); !errors.Is(err, ErrCheckpointInvalid) {
				t.Errorf("Restore = %v, want ErrCheckpointInvalid", err)
			}
			if _, err := dst.RestoreWithMeta(ck); !errors.Is(err, ErrCheckpointInvalid) {
				t.Errorf("RestoreWithMeta = %v, want ErrCheckpointInvalid", err)
			}
			if _, _, err := VerifyCheckpointDir(nil, ck); !errors.Is(err, ErrCheckpointInvalid) {
				t.Errorf("VerifyCheckpointDir = %v, want ErrCheckpointInvalid", err)
			}
			if got := stateDump(t, dst); len(got) != 0 {
				t.Fatalf("rejected restore left %d state entries behind", len(got))
			}

			next := filepath.Join(base, "gen-02")
			if err := s.CheckpointDelta(next, ck, nil); err != nil {
				t.Fatalf("checkpoint against the broken parent: %v", err)
			}
			if err := dst.Restore(next); err != nil {
				t.Fatalf("restore of the checkpoint taken against the broken parent: %v", err)
			}
			o.verify(t, "broken-parent-child", dst)
		})
	}
}

// listedNames returns the base names ListCheckpoints reports under parent,
// failing the test on a listing error or a checkpoint that does not
// verify.
func listedNames(t *testing.T, parent string) []string {
	t.Helper()
	infos, err := ListCheckpoints(nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ci := range infos {
		if ci.Err != nil {
			t.Fatalf("%s: %v", ci.Path, ci.Err)
		}
		names = append(names, filepath.Base(ci.Path))
	}
	return names
}

// A crash mid-checkpoint leaves its "<name>.tmp" staging directory, whose
// CUT was started but never finished; ListCheckpoints skips it and lists
// only what committed. A crash between the commit's two renames leaves
// the previous checkpoint at "<name>.old", the only complete copy, and that
// stays listed.
func TestListCheckpointsSkipsStagingDebris(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 2, WriteBufferBytes: 256, FS: inj})
	fillStore(t, s, 200)
	parent := filepath.Join(t.TempDir(), "cp")
	if err := s.Checkpoint(filepath.Join(parent, "gen-1")); err != nil {
		t.Fatal(err)
	}

	// The CUT's header is its first write, the first section its second.
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: filepath.Join("gen-2.tmp", ckpt.CutName), Nth: 2, Crash: true})
	if err := s.CheckpointDelta(filepath.Join(parent, "gen-2"), filepath.Join(parent, "gen-1"), nil); err == nil {
		t.Fatal("checkpoint survived a crash mid-CUT")
	}
	if !inj.Fired() {
		t.Fatal("CUT write fault did not fire")
	}
	inj.Reset()
	if _, err := ckpt.ReadCut(faultfs.OS, filepath.Join(parent, "gen-2.tmp")); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the crash left no half-written CUT in gen-2.tmp: %v", err)
	}
	if got := listedNames(t, parent); len(got) != 1 || got[0] != "gen-1" {
		t.Fatalf("after a crash mid-cut, listed %v, want [gen-1]", got)
	}

	// Re-cut gen-1 and crash at its second rename, gen-1.tmp onto gen-1,
	// after gen-1 moved aside to gen-1.old.
	inj.SetRule(faultfs.Rule{Op: faultfs.OpRename, PathContains: "gen-1", Nth: 2, Crash: true})
	if err := s.Checkpoint(filepath.Join(parent, "gen-1")); err == nil {
		t.Fatal("checkpoint survived a crash at its commit rename")
	}
	if !inj.Fired() {
		t.Fatal("commit rename fault did not fire")
	}
	inj.Reset()
	if got := listedNames(t, parent); len(got) != 1 || got[0] != "gen-1.old" {
		t.Fatalf("after a crash between the renames, listed %v, want [gen-1.old]", got)
	}
}
