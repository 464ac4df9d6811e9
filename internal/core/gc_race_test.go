package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"flowkv/internal/window"
)

// TestRetentionGCSkipsProtectedParent pins the guard deterministically:
// a GC pass with keep=1 must remove unreferenced older checkpoints —
// except one registered as an in-flight delta's hard-link parent, which
// survives until its delta releases it.
func TestRetentionGCSkipsProtectedParent(t *testing.T) {
	agg, wk, opts := crashConfig(PatternAUR)
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	// Three independent full checkpoints (no parent references, so the
	// reachability closure keeps nothing beyond the keep set).
	w := window.Window{Start: 0, End: 100}
	dirs := make([]string, 3)
	for i := range dirs {
		if err := s.Append([]byte("k"), []byte(fmt.Sprintf("v%d", i)), w, 0); err != nil {
			t.Fatal(err)
		}
		dirs[i] = filepath.Join(base, fmt.Sprintf("ck-%d", i))
		if err := s.CheckpointDelta(dirs[i], "", nil); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}

	release := s.protectParent(dirs[0])
	if err := s.retentionGC(dirs[2], 1); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, _, err := VerifyCheckpointDir(nil, dirs[0]); err != nil {
		t.Fatalf("gc removed the protected in-flight parent: %v", err)
	}
	if _, _, err := VerifyCheckpointDir(nil, dirs[1]); err == nil {
		t.Fatal("gc kept an unprotected, unreferenced checkpoint at keep=1")
	}

	// Released, the same pass removes it.
	release()
	release() // double release is harmless
	if err := s.retentionGC(dirs[2], 1); err != nil {
		t.Fatalf("second gc: %v", err)
	}
	if _, _, err := VerifyCheckpointDir(nil, dirs[0]); err == nil {
		t.Fatal("gc kept a released checkpoint at keep=1")
	}
	if _, _, err := VerifyCheckpointDir(nil, dirs[2]); err != nil {
		t.Fatalf("gc damaged the just-committed checkpoint: %v", err)
	}
}

// TestRetentionGCConcurrentDeltaChains races two incremental-checkpoint
// chains, each GC-ing aggressively after every commit (keep=2), against
// each other and a concurrent write load. The in-flight parent guard,
// and a GC pass that holds it from its look at the guard to its last
// unlink, is what makes this safe: every CheckpointDelta must succeed — a chain's
// GC unlinking the segments the other chain is mid-link against would
// surface as a commit error — and both final checkpoints must verify
// and restore. Run under -race this also proves the registry and the
// shared store counters are data-race free.
func TestRetentionGCConcurrentDeltaChains(t *testing.T) {
	agg, wk, opts := crashConfig(PatternAUR)
	opts.RetainCheckpoints = 2
	opts.MaxDeltaChain = 4
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	cks := filepath.Join(base, "cks")

	const rounds = 10
	finals := make([]string, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	// Retention only promises to keep the K newest siblings (plus
	// referenced ancestors), so a chain that finishes early has no claim
	// on survival. Both goroutines rendezvous before their final round:
	// the two heads commit last, land in every keep=2 set, and survive. A
	// chain that errors out arrives on its way out, so the other is not left
	// waiting for it and the test fails rather than hangs.
	var lastRound sync.WaitGroup
	lastRound.Add(2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var arrived sync.Once
			arrive := func() { arrived.Do(lastRound.Done) }
			defer arrive()
			parent := ""
			for i := 0; i < rounds; i++ {
				if i == rounds-1 {
					arrive()
					lastRound.Wait()
				}
				for k := 0; k < 12; k++ {
					key := []byte(fmt.Sprintf("g%d-key-%d", g, k))
					val := []byte(fmt.Sprintf("g%d-r%03d-k%d", g, i, k))
					w := window.Window{Start: int64(i) * 1000, End: int64(i)*1000 + 100}
					if err := s.Append(key, val, w, w.Start); err != nil {
						errs <- fmt.Errorf("chain %d round %d write: %w", g, i, err)
						return
					}
				}
				dir := filepath.Join(cks, fmt.Sprintf("chain%d-%03d", g, i))
				if err := s.CheckpointDelta(dir, parent, nil); err != nil {
					errs <- fmt.Errorf("chain %d round %d commit: %w", g, i, err)
					return
				}
				parent = dir
				finals[g] = dir
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Nothing GC left behind is corrupt: every surviving checkpoint
	// verifies against its manifest.
	infos, err := ListCheckpoints(nil, cks)
	if err != nil {
		t.Fatalf("list checkpoints: %v", err)
	}
	if len(infos) == 0 {
		t.Fatal("retention collected every checkpoint")
	}
	for _, ci := range infos {
		if ci.Err != nil {
			t.Fatalf("surviving checkpoint %s corrupt: %v", ci.Path, ci.Err)
		}
	}

	// Both chain heads committed last, so both are CRC-verified,
	// self-contained, and restorable.
	for g, final := range finals {
		if _, _, err := VerifyCheckpointDir(nil, final); err != nil {
			t.Fatalf("chain %d final checkpoint corrupt: %v", g, err)
		}
		restOpts := opts
		restOpts.FS = nil
		restOpts.RetainCheckpoints = 0
		restOpts.Dir = filepath.Join(base, fmt.Sprintf("restored-%d", g))
		fresh, err := Open(agg, wk, restOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(final); err != nil {
			t.Fatalf("chain %d final checkpoint does not restore: %v", g, err)
		}
		fresh.Destroy()
	}
	s.gcMu.Lock()
	leaked := len(s.inflightParents)
	s.gcMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d in-flight parents leaked after all deltas finished", leaked)
	}
}
