package jobmanager

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowkv/internal/ckpt"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

func writeSlotLog(t *testing.T, dir, name string, n int) string {
	t.Helper()
	var bd metrics.Breakdown
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	l, err := logfile.Create(path, &bd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func waitStatus(t *testing.T, p *Pool, id string, want func(SlotStatus) bool, what string) SlotStatus {
	t.Helper()
	if !p.AwaitStatus(id, want, 10*time.Second) {
		t.Fatalf("timeout waiting for %s on slot %s: %+v", what, id, p.Status())
	}
	for _, st := range p.Status() {
		if st.ID == id {
			return st
		}
	}
	t.Fatalf("slot %s vanished from the pool", id)
	return SlotStatus{}
}

// The prober's idle-slot scrub: at-rest rot in a log file on a healthy,
// empty slot fails the slot (keeping new tenants off it), and — because
// the media probe alone would pass — the slot only heals once the data
// scrubs clean again.
func TestProberScrubsIdleSlots(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	rotted := writeSlotLog(t, dirA, "seg.log", 200)
	writeSlotLog(t, dirB, "seg.log", 200)
	if err := faultfs.CorruptAtRest(nil, rotted, faultfs.CorruptBitFlip, -1); err != nil {
		t.Fatal(err)
	}

	p, err := NewPool([]Slot{{ID: "a", Dir: dirA}, {ID: "b", Dir: dirB}})
	if err != nil {
		t.Fatal(err)
	}
	stop := p.StartProber(ProberOptions{
		Interval:      2 * time.Millisecond,
		Confirmations: 1,
		ScrubIdle:     true,
	})
	defer stop()

	st := waitStatus(t, p, "a", func(s SlotStatus) bool { return !s.Healthy }, "scrub failure")
	if !strings.Contains(st.Err, "scrub") {
		t.Fatalf("failure not attributed to scrub: %q", st.Err)
	}
	if st.ScrubCorrupt == 0 {
		t.Fatalf("scrub corruption not counted: %+v", st)
	}

	// The clean slot keeps scrubbing and stays in rotation.
	st = waitStatus(t, p, "b", func(s SlotStatus) bool { return s.Scrubs > 0 }, "clean scrub")
	if !st.Healthy || st.ScrubCorrupt != 0 {
		t.Fatalf("clean slot: %+v", st)
	}

	// Media probes succeed on the rotten slot, but with ScrubIdle set
	// the heal path demands a clean scrub too: the slot stays failed
	// until the rot is actually gone.
	time.Sleep(20 * time.Millisecond)
	st = waitStatus(t, p, "a", func(s SlotStatus) bool { return !s.Healthy }, "slot staying failed")

	// Replace the rotten file; the prober heals the slot.
	writeSlotLog(t, dirA, "seg.log", 200)
	st = waitStatus(t, p, "a", func(s SlotStatus) bool { return s.Healthy }, "heal after repair")
	if st.Heals == 0 {
		t.Fatalf("heal not counted: %+v", st)
	}
}

// Slots with tenants placed are never scrubbed: a live appender may
// legitimately be mid-write, and the prober must not race it.
func TestProberSkipsBusySlots(t *testing.T) {
	base := t.TempDir()
	dirA := filepath.Join(base, "a")
	rotted := writeSlotLog(t, dirA, "seg.log", 100)
	if err := faultfs.CorruptAtRest(nil, rotted, faultfs.CorruptBitFlip, -1); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool([]Slot{{ID: "a", Dir: dirA}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire("tenant-1", nil); err != nil {
		t.Fatal(err)
	}
	stop := p.StartProber(ProberOptions{Interval: 2 * time.Millisecond, ScrubIdle: true})
	defer stop()
	time.Sleep(30 * time.Millisecond)
	st := p.Status()[0]
	if st.Scrubs != 0 || !st.Healthy {
		t.Fatalf("busy slot was scrubbed: %+v", st)
	}

	// Releasing the tenant makes the slot idle; the rot is then found.
	p.Release("tenant-1", "a")
	waitStatus(t, p, "a", func(s SlotStatus) bool { return !s.Healthy }, "scrub after release")
}

// A job that crashed mid-cut leaves the cut's staging directory
// ("<cut>.tmp") in the slot, its CUT half written. The idle scrub skips
// it, as core.ListCheckpoints does, so the slot does not fail as corrupt
// over debris; rot in a committed cut still fails it.
func TestScrubSkipsCheckpointStaging(t *testing.T) {
	slot := t.TempDir()
	s, err := core.Open(core.AggHolistic, window.Fixed, core.Options{
		Dir: filepath.Join(t.TempDir(), "store"), Instances: 2, WriteBufferBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	for i := 0; i < 100; i++ {
		if err := s.Append([]byte(fmt.Sprintf("k%02d", i%7)), []byte("v"), window.Window{Start: 0, End: 100}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	gen := filepath.Join(slot, "job", "gen-000001")
	for _, cut := range []string{"s00-w00", "s00-w01", "s00-w00.tmp"} {
		if err := s.Checkpoint(filepath.Join(gen, cut)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(filepath.Join(gen, "s00-w00.tmp", ckpt.CutName), 20); err != nil {
		t.Fatal(err)
	}
	if err := scrubSlotFiles(Slot{ID: "a", Dir: slot}); err != nil {
		t.Fatalf("scrub over a staging directory: %v", err)
	}

	if err := faultfs.CorruptAtRest(nil, filepath.Join(gen, "s00-w01", ckpt.CutName), faultfs.CorruptBitFlip, -1); err != nil {
		t.Fatal(err)
	}
	if err := scrubSlotFiles(Slot{ID: "a", Dir: slot}); !errors.Is(err, core.ErrCheckpointInvalid) {
		t.Fatalf("scrub over a rotten committed cut: %v, want ErrCheckpointInvalid", err)
	}
}
