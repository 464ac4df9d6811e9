package aar

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// TestTornTailRecovery tears a per-window log write mid-record with the
// fault injector, then restores the surviving file into a fresh store:
// the torn tail must be silently truncated (logfile.recoverEnd) so the
// drain returns exactly the records flushed before the tear — no torn
// garbage, no batch-2 leakage.
func TestTornTailRecovery(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	dir := filepath.Join(t.TempDir(), "aar")
	s, err := Open(Options{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	w := window.Window{Start: 0, End: 100}

	// Batch 1: durably on disk before any fault is armed.
	want := map[string]string{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		v := fmt.Sprintf("a%02d", i)
		if err := s.Append([]byte(k), []byte(v), w); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Batch 2: the flush that would persist it tears after 7 bytes and
	// the machine "crashes".
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "win_", TornBytes: 7, Crash: true})
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := s.Append([]byte(k), []byte(fmt.Sprintf("b%02d", i)), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush through a torn write unexpectedly succeeded")
	}
	if !inj.Fired() {
		t.Fatal("fault never fired")
	}
	_ = s.Close()
	inj.Reset()

	// Reboot: ship the surviving (torn) window file as a checkpoint — one
	// segment holding the whole file, described by a files section.
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	name := windowFileName(w)
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	seg := ckpt.SegmentName(name, 0)
	if err := os.WriteFile(filepath.Join(ckptDir, seg), b, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := &ckpt.Meta{Files: []ckpt.FileState{{Logical: name, Epoch: 1,
		Segments: []ckpt.Segment{{Name: seg, Len: int64(len(b)), CRC: binio.Checksum(b)}}}}}
	if err := ckpttest.Write(ckptDir, meta, nil); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{Dir: filepath.Join(t.TempDir(), "fresh")})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if err := fresh.restoreFrom(ckptDir); err != nil {
		t.Fatalf("restore of torn-tail checkpoint: %v", err)
	}
	got := map[string]string{}
	for {
		part, err := fresh.GetWindow(w)
		if err != nil {
			t.Fatalf("drain after torn-tail restore: %v", err)
		}
		if part == nil {
			break
		}
		for _, kv := range part {
			for _, v := range kv.Values {
				if prev, dup := got[string(kv.Key)]; dup {
					t.Fatalf("key %s duplicated: %q and %q", kv.Key, prev, v)
				}
				got[string(kv.Key)] = string(v)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s = %q, want %q (batch-2 leak or torn garbage)", k, got[k], v)
		}
	}
}
