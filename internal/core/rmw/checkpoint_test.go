package rmw

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
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

// TestDeltaElidesBornAndConsumed chains delta checkpoints over the three
// lifetimes the fresh-mark rule tells apart: an aggregate born and
// consumed between two cuts ships nothing; one the parent holds ships its
// tombstone; and one written before a cut but consumed before that cut's
// Commit hook runs — in flight — still ships its tombstone in the next
// delta.
func TestDeltaElidesBornAndConsumed(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	base := t.TempDir()
	var parent *ckpt.Meta
	var parentDir string
	// cut writes the next delta and returns its result and the bytes of
	// its new rmw.dlt segment; commit adopts it as the parent.
	cut := func(name string) (res *ckpt.Result, dir string, segBytes int64) {
		t.Helper()
		dir = filepath.Join(base, name)
		res, err := s.CheckpointDelta(dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		return res, dir, res.CopiedBytes
	}
	commit := func(res *ckpt.Result, dir string) {
		t.Helper()
		res.Commit()
		meta, err := ckpt.ReadMeta(faultfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		parent, parentDir = meta, dir
	}
	upsertBytes := func(key, val string) int64 {
		payload := encodeEntry([]byte{deltaKindUpsert}, id{key: key, w: w}, []byte(val))
		return int64(len(binio.AppendRecord(nil, payload)))
	}
	tombBytes := func(key string) int64 {
		payload := encodeEntry([]byte{deltaKindTombstone}, id{key: key, w: w}, nil)
		return int64(len(binio.AppendRecord(nil, payload)))
	}

	s.Put([]byte("held"), w, []byte("h"))
	res, dir, _ := cut("c1")
	commit(res, dir)

	// brief is born and consumed between c1 and c2; kept is born and stays.
	s.Put([]byte("brief"), w, []byte("b1"))
	s.Put([]byte("brief"), w, []byte("b2"))
	s.Get([]byte("brief"), w)
	s.Put([]byte("kept"), w, []byte("k"))
	res, dir, n := cut("c2")
	if want := upsertBytes("kept", "k"); n != want {
		t.Fatalf("c2 shipped %d bytes, want only kept's upsert (%d)", n, want)
	}
	// Between c2's cut and its commit: kept, which c2 is shipping, and
	// held, which c1 already holds, are consumed; late is born.
	s.Put([]byte("late"), w, []byte("l"))
	s.Get([]byte("kept"), w)
	s.Get([]byte("held"), w)
	commit(res, dir)

	res, dir, n = cut("c3")
	if want := tombBytes("kept") + tombBytes("held") + upsertBytes("late", "l"); n != want {
		t.Fatalf("c3 shipped %d bytes, want two tombstones and late's upsert (%d)", n, want)
	}
	commit(res, dir)

	dst := openTest(t, Options{})
	if err := dst.Restore(parentDir); err != nil {
		t.Fatal(err)
	}
	got := dumpLive(t, dst)
	if want := (map[id]string{{key: "late", w: w}: "l"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain restores %v, want only late", got)
	}
}
