package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	w := window.Window{Start: 0, End: 1000}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i%16))
		v := []byte(fmt.Sprintf("value-%05d", i))
		if err := s.Append(k, v, w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// rotLargestFile flips one bit in the largest file under dir — of a
// checkpoint, a segment or the CUT; of a store, a live log — returning the
// path it damaged.
func rotLargestFile(t *testing.T, dir string) string {
	t.Helper()
	var target string
	var size int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if name == "QUARANTINE" {
			return nil
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
		t.Fatalf("no corruptible file under %s", dir)
	}
	if err := faultfs.CorruptAtRest(nil, target, faultfs.CorruptBitFlip, -1); err != nil {
		t.Fatal(err)
	}
	return target
}

func TestScrubCleanStoreCountsEverything(t *testing.T) {
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 2, WriteBufferBytes: 256})
	fillStore(t, s, 200)
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Healed != 0 {
		t.Fatalf("clean sweep reported damage: %+v", rep)
	}
	if rep.Files == 0 || rep.Bytes == 0 {
		t.Fatalf("sweep scanned nothing: %+v", rep)
	}
	// One verdict per instance.
	if len(rep.Verdicts) != s.Instances() {
		t.Fatalf("verdicts: %d, want %d", len(rep.Verdicts), s.Instances())
	}
	st := s.Stats()
	if st.ScrubbedFiles == 0 || st.ScrubbedBytes == 0 || st.ScrubCorrupt != 0 {
		t.Fatalf("stats not fed: %+v", st)
	}
}

// A checkpoint that fails verification and is quarantined is refused by
// every consumer afterwards — Restore, verification, a listing — and the
// next delta against it falls back to a full base.
func TestQuarantinedCheckpointIsRefused(t *testing.T) {
	opts := Options{Instances: 2, WriteBufferBytes: 256}
	s := openStore(t, AggHolistic, window.Fixed, opts)
	fillStore(t, s, 200)
	parent := filepath.Join(t.TempDir(), "cp")
	ckpt := filepath.Join(parent, "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	sibling := filepath.Join(parent, "gen-2")
	if err := s.Checkpoint(sibling); err != nil {
		t.Fatal(err)
	}
	rotLargestFile(t, ckpt)
	_, _, verr := VerifyCheckpointDir(nil, ckpt)
	if !errors.Is(verr, ErrCheckpointInvalid) {
		t.Fatalf("verify of rotten checkpoint: %v", verr)
	}
	if err := QuarantineCheckpoint(nil, ckpt, verr.Error()); err != nil {
		t.Fatal(err)
	}
	if reason, ok := QuarantineReason(nil, ckpt); !ok || reason != verr.Error() {
		t.Fatalf("quarantine reason %q, %v", reason, ok)
	}

	// The quarantined checkpoint can no longer be served as valid state.
	dst := openStore(t, AggHolistic, window.Fixed, opts)
	if err := dst.Restore(ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of quarantined checkpoint: %v", err)
	}
	if _, _, err := VerifyCheckpointDir(nil, ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("verify of quarantined checkpoint: %v", err)
	}
	// A listing reports it failed and its sibling, a base of its own,
	// verified.
	infos, err := ListCheckpoints(nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d checkpoints, want 2", len(infos))
	}
	for _, ci := range infos {
		if quarantined := ci.Path == ckpt; quarantined != errors.Is(ci.Err, ErrCheckpointInvalid) {
			t.Fatalf("%s listed as %v", ci.Path, ci.Err)
		}
	}

	// A delta against the quarantined parent silently falls back to a
	// full base — and that base restores.
	delta := filepath.Join(parent, "gen-3")
	if err := s.CheckpointDelta(delta, ckpt, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyCheckpointDir(nil, delta); err != nil {
		t.Fatal(err)
	}
	if c, err := loadCut(faultfs.OS, delta); err != nil || c.Depth != 0 {
		t.Fatalf("delta against a quarantined parent: %+v, %v; want a base at depth 0", c, err)
	}
	if err := dst.Restore(delta); err != nil {
		t.Fatal(err)
	}
}

// The enriched checksum-mismatch error names the file and, when the
// damage sits inside a framed record, the offset of the first corrupt
// frame.
func TestCheckpointErrorNamesFileAndOffset(t *testing.T) {
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	fillStore(t, s, 100)
	ckpt := filepath.Join(t.TempDir(), "cp", "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rotLargestFile(t, ckpt)
	_, _, err := VerifyCheckpointDir(nil, ckpt)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CheckpointError, got %v", err)
	}
	if ce.File == "" {
		t.Fatalf("error does not name the file: %v", ce)
	}
	for _, want := range []string{"checksum mismatch", "manifest"} {
		if !contains(ce.Reason, want) {
			t.Fatalf("reason %q missing %q", ce.Reason, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestQuarantineIdempotentAndCrashSafe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := QuarantineCheckpoint(nil, dir, "first reason"); err != nil {
		t.Fatal(err)
	}
	if err := QuarantineCheckpoint(nil, dir, "second reason"); err != nil {
		t.Fatal(err)
	}
	reason, ok := QuarantineReason(nil, dir)
	if !ok || reason != "first reason" {
		t.Fatalf("reason %q ok=%v", reason, ok)
	}
}

// A crash while writing the quarantine marker of a rotten checkpoint must
// leave either no marker (the next verification re-detects the rot and
// retries) or a complete one — never a half-quarantined checkpoint.
func TestScrubQuarantineCrashSafe(t *testing.T) {
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	fillStore(t, s, 100)
	ckpt := filepath.Join(t.TempDir(), "cp", "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rotLargestFile(t, ckpt)
	_, _, verr := VerifyCheckpointDir(nil, ckpt)
	if !errors.Is(verr, ErrCheckpointInvalid) {
		t.Fatalf("verify of rotten checkpoint: %v", verr)
	}

	// Crash the process mid-quarantine: the marker's atomic rename dies.
	inj := faultfs.NewInjector(faultfs.OS)
	inj.SetRule(faultfs.Rule{Op: faultfs.OpRename, PathContains: quarantineName, Crash: true})
	if err := QuarantineCheckpoint(inj, ckpt, verr.Error()); err == nil {
		t.Fatal("quarantine survived a crash at its rename")
	}
	if !inj.Fired() {
		t.Fatal("quarantine rename fault did not fire")
	}
	if IsQuarantined(nil, ckpt) {
		t.Fatal("half-written quarantine marker visible after crash")
	}

	// "Restart": over a healthy filesystem verification re-detects the rot
	// and the retried quarantine completes.
	inj.Reset()
	_, _, verr = VerifyCheckpointDir(nil, ckpt)
	if !errors.Is(verr, ErrCheckpointInvalid) {
		t.Fatalf("rot not re-detected after restart: %v", verr)
	}
	if err := QuarantineCheckpoint(nil, ckpt, verr.Error()); err != nil {
		t.Fatal(err)
	}
	if reason, ok := QuarantineReason(nil, ckpt); !ok || reason != verr.Error() {
		t.Fatalf("quarantine after restart: reason %q, %v", reason, ok)
	}
	dst := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	if err := dst.Restore(ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of quarantined checkpoint: %v", err)
	}
}

// The background scrubber sweeps on its interval and surfaces its
// reports; rot planted in a synced live log between sweeps is picked up by
// the next one.
func TestScrubberFindsPlantedRot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openStore(t, AggHolistic, window.Fixed, Options{Dir: dir, Instances: 1, WriteBufferBytes: 256})
	fillStore(t, s, 100)
	sweeps := make(chan error, 64)
	sc := s.StartScrubber(ScrubberOptions{
		Interval: 5 * time.Millisecond,
		OnSweep:  func(_ *ScrubReport, err error) { sweeps <- err },
	})
	defer sc.Stop()
	if err := <-sweeps; err != nil {
		t.Fatalf("first sweep over clean logs: %v", err)
	}
	rotLargestFile(t, dir)
	deadline := time.After(5 * time.Second)
	for found := false; !found; {
		select {
		case err := <-sweeps:
			found = err != nil
		case <-deadline:
			t.Fatal("scrubber never found the planted rot")
		}
	}
	sc.Stop()
	if sc.Sweeps() == 0 || sc.CorruptFound() == 0 {
		t.Fatalf("scrubber counters: sweeps=%d corrupt=%d", sc.Sweeps(), sc.CorruptFound())
	}
	rep, err := sc.Last()
	if rep == nil || rep.Corrupt == 0 || err == nil {
		t.Fatalf("last sweep: %+v, %v; want the rot reported", rep, err)
	}
}

// A rate-limited sweep takes at least bytes/bps seconds.
func TestScrubPacerLimitsRate(t *testing.T) {
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	fillStore(t, s, 200)
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes == 0 {
		t.Skip("nothing to pace")
	}
	bps := rep.Bytes * 10 // ~100ms budget
	start := time.Now()
	if _, err := s.Scrub(ScrubOptions{BytesPerSec: bps}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("paced sweep finished in %v, want >= 50ms", el)
	}
}
