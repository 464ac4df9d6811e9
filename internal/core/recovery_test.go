package core

// Tests for the recovery additions: checkpoint application metadata,
// the background self-healer, the multi-fault legs (a second fault
// injected during Recover, and during the first flush after a
// successful recovery), and the crash+reopen leg — restart-in-place
// over the crashed store directory instead of a pristine one.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowkv/internal/binio"
	ckptpkg "flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

func TestCheckpointMetaRoundTrip(t *testing.T) {
	base := t.TempDir()
	agg, wk, opts := crashConfig(PatternAUR)
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 100}
	if err := s.Append([]byte("k"), []byte("v"), w, 10); err != nil {
		t.Fatal(err)
	}
	meta := bytes.Repeat([]byte("offset=1234 wm=77 "), 20)
	ckpt := filepath.Join(base, "ckpt")
	if err := s.CheckpointWithMeta(ckpt, meta); err != nil {
		t.Fatal(err)
	}

	if got, err := ReadCheckpointMeta(nil, ckpt); err != nil || !bytes.Equal(got, meta) {
		t.Fatalf("ReadCheckpointMeta = %q, %v; want %q", got, err, meta)
	}
	// The appmeta section holds the metadata deflated, under the CUT's
	// checksum.
	if sec, ok := cutSection(t, ckpt, ckptpkg.AppMeta); !ok || sec.Len >= int64(len(meta)) {
		t.Fatalf("appmeta section %+v (present %v) for %d bytes of metadata; want it deflated", sec, ok, len(meta))
	}
	if _, _, err := VerifyCheckpointDir(nil, ckpt); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Metadata that is not a deflate stream — the raw bytes — fails typed.
	old := filepath.Join(base, "undeflated")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := cutBytes(t, ckptpkg.Header{Pattern: int(PatternAUR), Instances: 1}, metasOf(1), meta)
	if err := os.WriteFile(filepath.Join(old, ckptpkg.CutName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *binio.FrameError
	if got, err := ReadCheckpointMeta(nil, old); !errors.As(err, &fe) {
		t.Fatalf("ReadCheckpointMeta of undeflated metadata = %d bytes, %v; want a FrameError", len(got), err)
	}

	restOpts := opts
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	got, err := fresh.RestoreWithMeta(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, meta) {
		t.Fatalf("RestoreWithMeta = %q, want %q", got, meta)
	}
	if vals, err := fresh.Read([]byte("k"), w); err != nil || len(vals) != 1 || string(vals[0]) != "v" {
		t.Fatalf("restored read = %q, %v", vals, err)
	}
}

func TestCheckpointNilMetaHasNoAppMeta(t *testing.T) {
	_, ckpt := checkpointedStore(t)
	if sec, ok := cutSection(t, ckpt, ckptpkg.AppMeta); ok {
		t.Fatalf("nil-meta checkpoint wrote an appmeta section: %+v", sec)
	}
	if got, err := ReadCheckpointMeta(nil, ckpt); err != nil || got != nil {
		t.Fatalf("ReadCheckpointMeta on metadata-free checkpoint = %q, %v; want nil, nil", got, err)
	}
}

// TestRestoreRejectsTamperedMeta: the appmeta section is covered by the
// CUT's checksums, so flipping a byte in it invalidates the whole checkpoint — recovery can
// trust the offsets it reads exactly as much as the state they describe.
func TestRestoreRejectsTamperedMeta(t *testing.T) {
	base := t.TempDir()
	agg, wk, opts := crashConfig(PatternRMW)
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 100}
	if err := s.PutAggregate([]byte("k"), w, []byte("agg")); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(base, "ckpt")
	if err := s.CheckpointWithMeta(ckpt, []byte("offset=42")); err != nil {
		t.Fatal(err)
	}
	sec, ok := cutSection(t, ckpt, ckptpkg.AppMeta)
	if !ok {
		t.Fatal("no appmeta section")
	}
	if err := faultfs.CorruptAtRest(nil, filepath.Join(ckpt, ckptpkg.CutName), faultfs.CorruptBitFlip, sec.Off+sec.Len/2); err != nil {
		t.Fatal(err)
	}
	restOpts := opts
	restOpts.Dir = filepath.Join(base, "restored")
	fresh, err := Open(agg, wk, restOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if _, err := fresh.RestoreWithMeta(ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore with tampered appmeta: %v, want ErrCheckpointInvalid", err)
	}
}

// degradeStore drives a store into Degraded with a persistent fsync
// fault: the writes themselves ack (buffered), the flush during Sync
// lands on disk, and the fsync failure poisons the logs. The injected
// rule is left armed; callers Reset or replace it.
func degradeStore(t *testing.T, p Pattern, inj *faultfs.Injector, s *Store) {
	t.Helper()
	for wi := 0; wi < 3; wi++ {
		for k := 0; k < 6; k++ {
			if err := writeBattery(s, p, wi, fmt.Sprintf("key-%d", k), 1000+wi*10+k); err != nil {
				t.Fatalf("baseline write: %v", err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}
	for wi := 0; wi < 3; wi++ {
		for k := 0; k < 6; k++ {
			if err := writeBattery(s, p, wi, fmt.Sprintf("key-%d", k), 2000+wi*10+k); err != nil {
				t.Fatalf("pre-fault write: %v", err)
			}
		}
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
	if err := s.Sync(); err == nil {
		t.Fatal("sync under persistent fsync fault succeeded")
	}
	if got := s.Health(); got != Degraded {
		t.Fatalf("health after failed sync = %v, want Degraded", got)
	}
}

// writeBattery issues one acked write in the battery's value format.
func writeBattery(s *Store, p Pattern, wi int, key string, seq int) error {
	w := batteryWindow(wi)
	val := fmt.Sprintf("%s|w%d|s%04d|%s", key, wi, seq, batteryValuePad)
	if p == PatternRMW {
		return s.PutAggregate([]byte(key), w, []byte(val))
	}
	return s.Append([]byte(key), []byte(val), w, w.Start)
}

func openBatteryStore(t *testing.T, p Pattern, inj *faultfs.Injector) *Store {
	t.Helper()
	agg, wk, opts := crashConfig(p)
	opts.Instances = 2
	opts.WriteBufferBytes = 2 << 20
	opts.ReadRetryBackoff = 50 * time.Microsecond
	opts.FS = inj
	opts.Dir = filepath.Join(t.TempDir(), "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Destroy() })
	return s
}

// TestMultiFaultDuringRecover is the first multi-fault leg: the store
// degrades on a failed fsync, and then recovery itself faults (the
// reopen-at-durable truncate fails). Recover must re-fail cleanly —
// store Failed, error surfaced, nothing silently dropped — and once the
// second fault clears, a later Recover must bring every acked write
// back.
func TestMultiFaultDuringRecover(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			s := openBatteryStore(t, p, inj)
			degradeStore(t, p, inj, s)

			// Second fault: fail the truncate ReopenAtDurable performs.
			inj.SetRule(faultfs.Rule{Op: faultfs.OpTruncate, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
			if err := s.Recover(); err == nil {
				t.Fatal("Recover under truncate fault succeeded")
			} else if !errors.Is(err, faultfs.ErrDiskIO) {
				t.Fatalf("Recover error = %v, want the injected disk fault", err)
			}
			if got := s.Health(); got != Failed {
				t.Fatalf("health after faulted Recover = %v, want Failed", got)
			}
			// Failed rejects everything, loudly.
			if err := writeBattery(s, p, 0, "key-0", 9999); !errors.Is(err, ErrFailed) {
				t.Fatalf("write on Failed store: %v, want ErrFailed", err)
			}

			// Fault clears; recovery succeeds and no acked write was lost.
			inj.Reset()
			if err := s.Recover(); err != nil {
				t.Fatalf("Recover after fault cleared: %v", err)
			}
			if got := s.Health(); got != Healthy {
				t.Fatalf("health after recover = %v, want Healthy", got)
			}
			// Both battery rounds per (window, key) must be readable.
			verifyBatteryReadableWithExtra(t, s, p, 2, 0)
		})
	}
}

// TestMultiFaultPostRecoveryFlush is the second multi-fault leg: a store
// recovers from Degraded, and the first flush after recovery — which
// carries the rewritten tail plus anything buffered since — hits a fresh
// write fault. The store must degrade again (not corrupt, not lose), and
// recover again once the disk settles.
func TestMultiFaultPostRecoveryFlush(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			s := openBatteryStore(t, p, inj)
			degradeStore(t, p, inj, s)

			inj.Reset()
			if err := s.Recover(); err != nil {
				t.Fatalf("first recover: %v", err)
			}

			// More acked writes, then fault the post-recovery flush.
			for k := 0; k < 6; k++ {
				if err := writeBattery(s, p, 0, fmt.Sprintf("key-%d", k), 3000+k); err != nil {
					t.Fatalf("post-recovery write: %v", err)
				}
			}
			inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
			ferr := s.Sync()
			if !inj.Fired() {
				t.Fatal("post-recovery flush fault never fired")
			}
			if ferr == nil {
				t.Fatal("sync under persistent write fault succeeded")
			}
			if got := s.Health(); got != Degraded {
				t.Fatalf("health after faulted post-recovery flush = %v, want Degraded", got)
			}

			inj.Reset()
			if err := s.Recover(); err != nil {
				t.Fatalf("second recover: %v", err)
			}
			// Two battery rounds everywhere, plus the post-recovery round
			// in window 0: nothing acked may be missing.
			verifyBatteryReadableWithExtra(t, s, p, 2, 1)
		})
	}
}

// verifyBatteryReadableWithExtra checks rounds values per key in every
// battery window, plus extra additional values per key in window 0.
func verifyBatteryReadableWithExtra(t *testing.T, s *Store, p Pattern, rounds, extra int) {
	t.Helper()
	for wi := 0; wi < 3; wi++ {
		w := batteryWindow(wi)
		want := rounds
		if wi == 0 {
			want += extra
		}
		switch p {
		case PatternAAR:
			got := map[string]int{}
			for {
				part, err := s.GetWindow(w)
				if err != nil {
					t.Fatalf("GetWindow(%v): %v", w, err)
				}
				if part == nil {
					break
				}
				for _, kv := range part {
					got[string(kv.Key)] += len(kv.Values)
				}
			}
			for k := 0; k < 6; k++ {
				key := fmt.Sprintf("key-%d", k)
				if got[key] != want {
					t.Fatalf("window %v key %s: %d values, want %d", w, key, got[key], want)
				}
			}
		case PatternAUR:
			for k := 0; k < 6; k++ {
				key := fmt.Sprintf("key-%d", k)
				vals, err := s.Read([]byte(key), w)
				if err != nil {
					t.Fatalf("Read(%s, %v): %v", key, w, err)
				}
				if len(vals) != want {
					t.Fatalf("window %v key %s: %d values, want %d", w, key, len(vals), want)
				}
			}
		default:
			for k := 0; k < 6; k++ {
				key := fmt.Sprintf("key-%d", k)
				_, ok, err := s.GetAggregate([]byte(key), w)
				if err != nil {
					t.Fatalf("GetAggregate(%s, %v): %v", key, w, err)
				}
				if !ok {
					t.Fatalf("window %v key %s: aggregate missing", w, key)
				}
			}
		}
	}
}

// TestSelfHealerHealsDegradedStore: a store degraded by a transient disk
// fault is brought back to Healthy by the background recoverer, with no
// manual intervention, and acked writes survive the round trip.
func TestSelfHealerHealsDegradedStore(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			s := openBatteryStore(t, p, inj)
			degradeStore(t, p, inj, s)
			inj.Reset() // the disk settles; the healer should do the rest

			h := s.StartSelfHealer(SelfHealOptions{Interval: time.Millisecond})
			defer h.Stop()
			deadline := time.Now().Add(5 * time.Second)
			for s.Health() != Healthy && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := s.Health(); got != Healthy {
				t.Fatalf("self-healer never recovered the store: health %v, lastErr %v", got, h.LastErr())
			}
			if h.Heals() == 0 {
				t.Fatal("healer reports zero heals after a recovery")
			}
			if err := writeBattery(s, p, 0, "key-0", 5000); err != nil {
				t.Fatalf("write after self-heal: %v", err)
			}
			if st := s.Stats(); st.Recoveries == 0 {
				t.Fatalf("stats show no recoveries: %+v", st)
			}
		})
	}
}

// TestSelfHealerGivesUpCleanly: when recovery keeps faulting, the healer
// retries with backoff up to MaxAttempts and then stops — store left
// loudly Failed, GaveUp reported — instead of spinning forever. A manual
// Recover after the fault clears still works.
func TestSelfHealerGivesUpCleanly(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openBatteryStore(t, PatternRMW, inj)
	degradeStore(t, PatternRMW, inj, s)
	// Recovery itself faults, persistently.
	inj.SetRule(faultfs.Rule{Op: faultfs.OpTruncate, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})

	h := s.StartSelfHealer(SelfHealOptions{
		Interval:       time.Millisecond,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		MaxAttempts:    3,
	})
	defer h.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !h.GaveUp() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !h.GaveUp() {
		t.Fatalf("healer did not give up; attempts=%d lastErr=%v", h.Attempts(), h.LastErr())
	}
	if got := h.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if got := s.Health(); got != Failed {
		t.Fatalf("health after healer gave up = %v, want Failed", got)
	}
	if h.LastErr() == nil || !errors.Is(h.LastErr(), faultfs.ErrDiskIO) {
		t.Fatalf("LastErr = %v, want the injected fault", h.LastErr())
	}

	inj.Reset()
	if err := s.Recover(); err != nil {
		t.Fatalf("manual recover after fault cleared: %v", err)
	}
	if got := s.Health(); got != Healthy {
		t.Fatalf("health = %v, want Healthy", got)
	}
}

// runCrashReopenIteration is the crash+reopen leg: after the simulated
// crash the "machine" restarts **in place** — a fresh store opens over
// the surviving live directory (open-time recovery must absorb torn
// tails and stale generations without error), serves new writes, and
// then performs the real restart protocol: wipe the live dir, reopen,
// and restore the newest checkpoint that verifies.
func runCrashReopenIteration(t *testing.T, pattern Pattern, seed int64) (fired bool) {
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
	for i := 0; i < 120; i++ {
		if err := o.step(rng, st, &ctr); err != nil {
			t.Fatalf("phase A op: %v", err)
		}
	}
	ckpt := filepath.Join(base, "ckpt")
	if err := st.Checkpoint(ckpt); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	o1 := o.clone()

	rule := faultfs.Rule{AtOp: inj.Ops() + 1 + rng.Int63n(60), Crash: true}
	if rng.Intn(2) == 0 {
		rule.TornBytes = 1 + rng.Intn(48)
	}
	inj.SetRule(rule)
	var errB error
	for i := 0; i < 120 && errB == nil; i++ {
		errB = o.step(rng, st, &ctr)
	}
	fired = inj.Fired()
	if errB != nil && !fired {
		t.Fatalf("phase B failed without an injected fault: %v", errB)
	}
	_ = st.Close()
	inj.Reset()

	// Reboot 1: reopen over the crashed live directory. Whatever bytes
	// survived — torn tails, half-flushed batches, stale generations —
	// opening must succeed and the store must serve new writes. (Live
	// state is not promised back: recovery is checkpoint-based.)
	reOpts := opts
	reOpts.FS = nil
	reopened, err := Open(agg, wk, reOpts)
	if err != nil {
		t.Fatalf("reopen over crashed dir: %v", err)
	}
	w := window.Window{Start: 1 << 40, End: 1<<40 + 100}
	probe := func(s *Store, tag string) {
		t.Helper()
		if pattern == PatternRMW {
			if err := s.PutAggregate([]byte("probe"), w, []byte("pv")); err != nil {
				t.Fatalf("%s: probe put: %v", tag, err)
			}
			got, ok, err := s.GetAggregate([]byte("probe"), w)
			if err != nil || !ok || string(got) != "pv" {
				t.Fatalf("%s: probe readback = %q,%v,%v", tag, got, ok, err)
			}
		} else {
			if err := s.Append([]byte("probe"), []byte("pv"), w, w.Start); err != nil {
				t.Fatalf("%s: probe append: %v", tag, err)
			}
		}
		if got := s.Health(); got != Healthy {
			t.Fatalf("%s: reopened store health = %v", tag, got)
		}
	}
	probe(reopened, "reopen")

	// Restart protocol: wipe the live dir, open fresh, restore the
	// newest checkpoint that verifies (here: the known-good one; the
	// live dir held only unacked-after-cut state).
	if err := reopened.Destroy(); err != nil {
		t.Fatalf("destroy crashed live dir: %v", err)
	}
	restored, err := Open(agg, wk, reOpts)
	if err != nil {
		t.Fatalf("open after wipe: %v", err)
	}
	defer restored.Destroy()
	if err := restored.Restore(ckpt); err != nil {
		t.Fatalf("restore into wiped dir: %v", err)
	}
	o1.verify(t, "reopen-restore", restored)
	probe(restored, "restored")
	return fired
}

// TestCrashReopenRandomized runs the crash+reopen leg across all three
// patterns with enough seeds that the crash lands in a good spread of
// flush/checkpoint positions.
func TestCrashReopenRandomized(t *testing.T) {
	const seedsPerPattern = 25
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fired := 0
			for seed := int64(1000); seed < 1000+seedsPerPattern; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					if runCrashReopenIteration(t, p, seed) {
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
