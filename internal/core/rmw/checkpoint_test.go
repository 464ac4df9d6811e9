package rmw

import (
	"fmt"
	"path/filepath"
	"testing"

	"flowkv/internal/window"
)

func TestStoreLevelCheckpointRestore(t *testing.T) {
	src := openTest(t, Options{WriteBufferBytes: 1})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 30; i++ {
		if err := src.Put([]byte(fmt.Sprintf("k%02d", i)), w, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some (dead log entries) and consume others.
	for i := 0; i < 10; i++ {
		src.Put([]byte(fmt.Sprintf("k%02d", i)), w, []byte(fmt.Sprintf("V%02d", i)))
	}
	for i := 20; i < 30; i++ {
		if _, ok, err := src.Get([]byte(fmt.Sprintf("k%02d", i)), w); !ok || err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.CheckpointDelta(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{Dir: filepath.Join(t.TempDir(), "restored"), WriteBufferBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if dst.LiveStates() != 20 {
		t.Fatalf("restored LiveStates = %d, want 20", dst.LiveStates())
	}
	for i := 0; i < 30; i++ {
		agg, ok, err := dst.Get([]byte(fmt.Sprintf("k%02d", i)), w)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < 10:
			if !ok || string(agg) != fmt.Sprintf("V%02d", i) {
				t.Fatalf("k%02d = %q,%v; want overwritten value", i, agg, ok)
			}
		case i < 20:
			if !ok || string(agg) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("k%02d = %q,%v", i, agg, ok)
			}
		default:
			if ok {
				t.Fatalf("consumed k%02d resurrected", i)
			}
		}
	}
	// The restored store keeps working.
	if err := dst.Put([]byte("new"), w, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dst.Get([]byte("new"), w); !ok {
		t.Fatal("post-restore put/get failed")
	}
}

func TestRestoreIntoDirtyStoreFails(t *testing.T) {
	src := openTest(t, Options{})
	src.Put([]byte("k"), window.Window{Start: 0, End: 100}, []byte("v"))
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.CheckpointDelta(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Put([]byte("x"), window.Window{Start: 0, End: 100}, []byte("y"))
	if err := dirty.Restore(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointClosed(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if _, err := s.CheckpointDelta(t.TempDir(), nil, ""); err != ErrClosed {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Restore(t.TempDir()); err != ErrClosed {
		t.Errorf("Restore: %v", err)
	}
}

func TestDiskUsageAndFlush(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Put([]byte("k"), w, []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.DiskUsage(); n == 0 {
		t.Errorf("DiskUsage = %d", n)
	}
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after Flush", s.BufferedBytes())
	}
}
