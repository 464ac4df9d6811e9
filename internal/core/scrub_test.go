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

// rotCheckpointFile flips one byte in the largest file of a checkpoint,
// a segment or the CUT, returning the path it damaged.
func rotCheckpointFile(t *testing.T, dir string) string {
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
	ckpt := filepath.Join(t.TempDir(), "cp", "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{CheckpointDirs: []string{filepath.Dir(ckpt)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Quarantined != 0 || rep.Healed != 0 {
		t.Fatalf("clean sweep reported damage: %+v", rep)
	}
	if rep.Files == 0 || rep.Bytes == 0 {
		t.Fatalf("sweep scanned nothing: %+v", rep)
	}
	// One verdict per instance plus one per checkpoint.
	if len(rep.Verdicts) != s.Instances()+1 {
		t.Fatalf("verdicts: %d, want %d", len(rep.Verdicts), s.Instances()+1)
	}
	st := s.Stats()
	if st.ScrubbedFiles == 0 || st.ScrubbedBytes == 0 || st.ScrubCorrupt != 0 {
		t.Fatalf("stats not fed: %+v", st)
	}
}

// A corrupt checkpoint is quarantined by the sweep — recorded, not a
// sweep error — and every consumer afterwards refuses it: Restore,
// verification, and the next delta falls back to a full base.
func TestScrubQuarantinesCorruptCheckpoint(t *testing.T) {
	opts := Options{Instances: 2, WriteBufferBytes: 256}
	s := openStore(t, AggHolistic, window.Fixed, opts)
	fillStore(t, s, 200)
	parent := filepath.Join(t.TempDir(), "cp")
	ckpt := filepath.Join(parent, "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rotCheckpointFile(t, ckpt)

	rep, err := s.Scrub(ScrubOptions{CheckpointDirs: []string{parent}})
	if err != nil {
		t.Fatalf("checkpoint rot must not be a sweep error, got %v", err)
	}
	if rep.Corrupt != 1 || rep.Quarantined != 1 {
		t.Fatalf("sweep: %+v", rep)
	}
	if !IsQuarantined(nil, ckpt) {
		t.Fatal("checkpoint not quarantined")
	}
	reason, _ := QuarantineReason(nil, ckpt)
	if reason == "" {
		t.Fatal("quarantine reason empty")
	}

	// The quarantined checkpoint can no longer be served as valid state.
	dst := openStore(t, AggHolistic, window.Fixed, Options{Instances: 2, WriteBufferBytes: 256})
	if err := dst.Restore(ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("restore of quarantined checkpoint: %v", err)
	}
	if _, _, err := VerifyCheckpointDir(nil, ckpt); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("verify of quarantined checkpoint: %v", err)
	}

	// A delta against the quarantined parent silently falls back to a
	// full base — and that base restores.
	delta := filepath.Join(parent, "gen-2")
	if err := s.CheckpointDelta(delta, ckpt, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyCheckpointDir(nil, delta); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(delta); err != nil {
		t.Fatal(err)
	}

	// Re-sweeping reports the standing quarantine without stacking
	// fresh markers or failing the sweep.
	rep, err = s.Scrub(ScrubOptions{CheckpointDirs: []string{parent}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("re-sweep: %+v", rep)
	}
	if r2, _ := QuarantineReason(nil, ckpt); r2 != reason {
		t.Fatalf("quarantine reason changed: %q -> %q", reason, r2)
	}
}

// Quarantined checkpoints sit outside retention entirely: they never
// occupy a keep slot (rot must not shadow a restorable generation) and
// are never garbage-collected (the evidence is preserved).
func TestQuarantineOutsideRetention(t *testing.T) {
	opts := Options{Instances: 1, WriteBufferBytes: 256, RetainCheckpoints: 2}
	s := openStore(t, AggHolistic, window.Fixed, opts)
	parent := filepath.Join(t.TempDir(), "cp")
	var dirs []string
	for i := 1; i <= 2; i++ {
		fillStore(t, s, 50)
		dir := filepath.Join(parent, fmt.Sprintf("gen-%d", i))
		if err := s.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	rotCheckpointFile(t, dirs[1])
	if _, err := s.Scrub(ScrubOptions{CheckpointDirs: []string{parent}}); err != nil {
		t.Fatal(err)
	}
	if !IsQuarantined(nil, dirs[1]) {
		t.Fatal("gen-2 not quarantined")
	}

	// Two more checkpoints: with keep=2 and gen-2 quarantined, the keep
	// slots must go to gen-3 and gen-4 while gen-1 rotates out — and the
	// quarantined gen-2 must survive GC untouched.
	for i := 3; i <= 4; i++ {
		fillStore(t, s, 50)
		dir := filepath.Join(parent, fmt.Sprintf("gen-%d", i))
		if err := s.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	if _, err := os.Stat(dirs[0]); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("gen-1 should have rotated out: %v", err)
	}
	if _, err := os.Stat(dirs[1]); err != nil {
		t.Fatalf("quarantined gen-2 was collected: %v", err)
	}
	for _, dir := range dirs[2:] {
		if _, _, err := VerifyCheckpointDir(nil, dir); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
	}

	// ListCheckpoints reports the quarantined generation as failed.
	infos, err := ListCheckpoints(nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined int
	for _, ci := range infos {
		if ci.Path == dirs[1] {
			if !errors.Is(ci.Err, ErrCheckpointInvalid) {
				t.Fatalf("quarantined checkpoint listed as %v", ci.Err)
			}
			quarantined++
		} else if ci.Err != nil {
			t.Fatalf("%s: %v", ci.Path, ci.Err)
		}
	}
	if quarantined != 1 {
		t.Fatalf("quarantined listings: %d", quarantined)
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
	rotCheckpointFile(t, ckpt)
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

// The background scrubber sweeps on its interval and surfaces its
// reports; rot planted between sweeps is picked up by the next one.
func TestScrubberFindsPlantedRot(t *testing.T) {
	s := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	fillStore(t, s, 100)
	parent := filepath.Join(t.TempDir(), "cp")
	ckpt := filepath.Join(parent, "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	sweeps := make(chan struct{}, 64)
	sc := s.StartScrubber(ScrubberOptions{
		Interval: 5 * time.Millisecond,
		Scrub:    ScrubOptions{CheckpointDirs: []string{parent}},
		OnSweep:  func(*ScrubReport, error) { sweeps <- struct{}{} },
	})
	defer sc.Stop()
	<-sweeps // one clean sweep completed
	rotCheckpointFile(t, ckpt)
	deadline := time.After(5 * time.Second)
	for !IsQuarantined(nil, ckpt) {
		select {
		case <-sweeps:
		case <-deadline:
			t.Fatal("scrubber never quarantined the planted rot")
		}
	}
	sc.Stop()
	if sc.Sweeps() == 0 || sc.CorruptFound() == 0 {
		t.Fatalf("scrubber counters: sweeps=%d corrupt=%d", sc.Sweeps(), sc.CorruptFound())
	}
	rep, err := sc.Last()
	if rep == nil {
		t.Fatal("no last report")
	}
	if err != nil {
		t.Fatalf("checkpoint rot must not fail the sweep: %v", err)
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

// A crash while writing the quarantine marker must leave either no
// marker (the next sweep re-detects and retries) or a complete one —
// never a half-quarantined checkpoint.
func TestScrubQuarantineCrashSafe(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openStore(t, AggHolistic, window.Fixed,
		Options{Instances: 1, WriteBufferBytes: 256, FS: inj})
	fillStore(t, s, 100)
	parent := filepath.Join(t.TempDir(), "cp")
	ckpt := filepath.Join(parent, "gen-1")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rotCheckpointFile(t, ckpt)

	// Crash the process mid-quarantine: the marker's atomic rename dies.
	inj.SetRule(faultfs.Rule{Op: faultfs.OpRename, PathContains: quarantineName, Crash: true})
	rep, err := s.Scrub(ScrubOptions{CheckpointDirs: []string{parent}})
	if err != nil {
		t.Fatalf("checkpoint rot must not fail the sweep: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("quarantine rename fault did not fire")
	}
	if rep.Corrupt != 1 || rep.Quarantined != 0 {
		t.Fatalf("mid-crash sweep: %+v", rep)
	}
	if IsQuarantined(nil, ckpt) {
		t.Fatal("half-written quarantine marker visible after crash")
	}

	// "Restart": a fresh store over a healthy filesystem re-detects the
	// rot on its next sweep and completes the quarantine.
	inj.Reset()
	s2 := openStore(t, AggHolistic, window.Fixed, Options{Instances: 1, WriteBufferBytes: 256})
	rep, err = s2.Scrub(ScrubOptions{CheckpointDirs: []string{parent}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Quarantined != 1 {
		t.Fatalf("post-restart sweep: %+v", rep)
	}
	if !IsQuarantined(nil, ckpt) {
		t.Fatal("rot not quarantined after restart")
	}
}
