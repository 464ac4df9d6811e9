package aar

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "aar")
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Destroy() })
	return s
}

// drain reads every partition of w and merges them into key->values.
func drain(t *testing.T, s *Store, w window.Window) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	for {
		part, err := s.GetWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if part == nil {
			return got
		}
		for _, kv := range part {
			for _, v := range kv.Values {
				got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
			}
		}
	}
}

func TestAppendGetWindowInMemory(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Append([]byte("k1"), []byte("a"), w)
	s.Append([]byte("k2"), []byte("b"), w)
	s.Append([]byte("k1"), []byte("c"), w)

	got := drain(t, s, w)
	if len(got) != 2 {
		t.Fatalf("got %d keys", len(got))
	}
	if got["k1"][0] != "a" || got["k1"][1] != "c" {
		t.Errorf("k1 values = %v, want append order [a c]", got["k1"])
	}
	if got["k2"][0] != "b" {
		t.Errorf("k2 values = %v", got["k2"])
	}
}

func TestGetWindowRemovesState(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Append([]byte("k"), []byte("v"), w)
	drain(t, s, w)
	// Second read: window must be gone (fetch & remove).
	if part, err := s.GetWindow(w); err != nil || part != nil {
		t.Errorf("after drain: part=%v err=%v, want nil,nil", part, err)
	}
}

func TestGetWindowEmptyWindow(t *testing.T) {
	s := openTest(t, Options{})
	part, err := s.GetWindow(window.Window{Start: 5, End: 6})
	if err != nil || part != nil {
		t.Errorf("empty window: part=%v err=%v", part, err)
	}
}

func TestFlushAndReadBack(t *testing.T) {
	// Tiny buffer forces flushes; data must survive the spill.
	s := openTest(t, Options{WriteBufferBytes: 256})
	w := window.Window{Start: 0, End: 1000}
	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i%10))
		v := []byte(fmt.Sprintf("val-%03d", i))
		if err := s.Append(k, v, w); err != nil {
			t.Fatal(err)
		}
	}
	if s.Flushes() == 0 {
		t.Fatal("expected at least one flush")
	}
	got := drain(t, s, w)
	var total int
	for _, vs := range got {
		total += len(vs)
	}
	if total != n {
		t.Fatalf("read back %d values, want %d", total, n)
	}
	// Per-key append order is preserved across flush boundaries.
	for k, vs := range got {
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				t.Fatalf("key %s: values out of append order: %v", k, vs)
			}
		}
	}
}

func TestWindowsIsolated(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 128})
	w1 := window.Window{Start: 0, End: 100}
	w2 := window.Window{Start: 100, End: 200}
	for i := 0; i < 50; i++ {
		s.Append([]byte("k"), []byte(fmt.Sprintf("w1-%02d", i)), w1)
		s.Append([]byte("k"), []byte(fmt.Sprintf("w2-%02d", i)), w2)
	}
	got1 := drain(t, s, w1)
	if len(got1["k"]) != 50 {
		t.Fatalf("w1 has %d values", len(got1["k"]))
	}
	for _, v := range got1["k"] {
		if v[:2] != "w1" {
			t.Fatalf("w1 leaked value %q", v)
		}
	}
	got2 := drain(t, s, w2)
	if len(got2["k"]) != 50 {
		t.Fatalf("w2 has %d values", len(got2["k"]))
	}
}

func TestGradualLoadingPartitions(t *testing.T) {
	// With a small partition size, a large window must need several
	// GetWindow calls, each bounded.
	s := openTest(t, Options{WriteBufferBytes: 1024, LoadPartitionBytes: 2048, FlushChunkBytes: 512})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 1000; i++ {
		s.Append([]byte(fmt.Sprintf("k%02d", i%16)), make([]byte, 64), w)
	}
	var calls, values int
	for {
		part, err := s.GetWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if part == nil {
			break
		}
		calls++
		var partBytes int
		for _, kv := range part {
			values += len(kv.Values)
			for _, v := range kv.Values {
				partBytes += len(v)
			}
		}
		if int64(partBytes) > 3*2048 {
			t.Fatalf("partition of %d bytes exceeds gradual-loading bound", partBytes)
		}
	}
	if calls < 5 {
		t.Errorf("expected gradual loading across many calls, got %d", calls)
	}
	if values != 1000 {
		t.Errorf("read %d values, want 1000", values)
	}
}

func TestFileCleanupAfterRead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aar")
	s := openTest(t, Options{Dir: dir, WriteBufferBytes: 64})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100; i++ {
		s.Append([]byte("k"), []byte("0123456789"), w)
	}
	if s.DiskUsage() == 0 {
		t.Fatal("expected on-disk state before read")
	}
	drain(t, s, w)
	if usage := s.DiskUsage(); usage != 0 {
		t.Errorf("per-window log not cleaned after read: %d bytes remain", usage)
	}
}

func TestDropWindow(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 64})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100; i++ {
		s.Append([]byte("k"), []byte("0123456789"), w)
	}
	if err := s.DropWindow(w); err != nil {
		t.Fatal(err)
	}
	if usage := s.DiskUsage(); usage != 0 {
		t.Errorf("disk not cleaned after DropWindow: %d", usage)
	}
	if s.BufferedBytes() != 0 {
		t.Errorf("buffer not cleaned after DropWindow: %d", s.BufferedBytes())
	}
	if part, err := s.GetWindow(w); err != nil || part != nil {
		t.Errorf("dropped window still readable: %v %v", part, err)
	}
}

func TestReplicatedTuplesAcrossWindows(t *testing.T) {
	// Sliding windows: the SPE replicates a tuple into each window;
	// both copies must be independently retrievable.
	s := openTest(t, Options{})
	a := window.SlidingAssigner{Size: 100, Slide: 50}
	for _, w := range a.Assign(120) {
		s.Append([]byte("k"), []byte("v"), w)
	}
	for _, w := range a.Assign(120) {
		got := drain(t, s, w)
		if len(got["k"]) != 1 {
			t.Errorf("window %v: %v", w, got)
		}
	}
}

func TestFineGrainedMode(t *testing.T) {
	// The ablation layout must return identical data.
	s := openTest(t, Options{WriteBufferBytes: 512, FineGrained: true})
	w := window.Window{Start: 0, End: 100}
	const n = 100
	for i := 0; i < n; i++ {
		s.Append([]byte(fmt.Sprintf("k%d", i%7)), []byte(fmt.Sprintf("v%03d", i)), w)
	}
	got := drain(t, s, w)
	var total int
	for _, vs := range got {
		total += len(vs)
	}
	if total != n {
		t.Fatalf("fine-grained read back %d values, want %d", total, n)
	}
}

func TestLiveWindowsAndStats(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 64})
	w1 := window.Window{Start: 0, End: 100}
	w2 := window.Window{Start: 100, End: 200}
	s.Append([]byte("k"), []byte("0123456789012345678901234567890123456789"), w1)
	s.Append([]byte("k"), []byte("v"), w2)
	if got := s.LiveWindows(); got != 2 {
		t.Errorf("LiveWindows = %d, want 2", got)
	}
	if s.Appends() != 2 {
		t.Errorf("Appends = %d", s.Appends())
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var bd metrics.Breakdown
	s := openTest(t, Options{WriteBufferBytes: 64, Breakdown: &bd})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 50; i++ {
		s.Append([]byte("k"), []byte("0123456789"), w)
	}
	drain(t, s, w)
	if bd.Calls(metrics.OpWrite) == 0 {
		t.Error("no write ops recorded")
	}
	if bd.Calls(metrics.OpRead) == 0 {
		t.Error("no read ops recorded")
	}
	if bd.BytesWritten() == 0 {
		t.Error("no written bytes recorded")
	}
}

func TestClosedErrors(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("k"), []byte("v"), window.Window{}); err != ErrClosed {
		t.Errorf("Append on closed: %v", err)
	}
	if _, err := s.GetWindow(window.Window{}); err != ErrClosed {
		t.Errorf("GetWindow on closed: %v", err)
	}
	if err := s.DropWindow(window.Window{}); err != ErrClosed {
		t.Errorf("DropWindow on closed: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("Flush on closed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestFlushCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aar")
	s := openTest(t, Options{Dir: dir})
	w := window.Window{Start: 0, End: 100}
	s.Append([]byte("k"), []byte("v"), w)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// After a checkpoint flush all buffered data is on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Error("no files after checkpoint Flush")
	}
	if s.BufferedBytes() != 0 {
		t.Errorf("buffer not empty after Flush: %d", s.BufferedBytes())
	}
	// Data still readable after the flush.
	got := drain(t, s, w)
	if len(got["k"]) != 1 {
		t.Errorf("read after flush: %v", got)
	}
}

func TestRandomizedRoundTrip(t *testing.T) {
	// Property-style: random appends across windows and keys; everything
	// written must come back exactly once, in per-key order.
	rng := rand.New(rand.NewSource(42))
	s := openTest(t, Options{WriteBufferBytes: 2048, LoadPartitionBytes: 1024})
	want := make(map[window.Window]map[string][]string)
	for i := 0; i < 3000; i++ {
		w := window.Window{Start: int64(rng.Intn(4)) * 100, End: int64(rng.Intn(4))*100 + 100}
		k := fmt.Sprintf("key-%d", rng.Intn(20))
		v := fmt.Sprintf("val-%06d", i)
		if err := s.Append([]byte(k), []byte(v), w); err != nil {
			t.Fatal(err)
		}
		if want[w] == nil {
			want[w] = make(map[string][]string)
		}
		want[w][k] = append(want[w][k], v)
	}
	for w, wantKeys := range want {
		got := drain(t, s, w)
		if len(got) != len(wantKeys) {
			t.Fatalf("window %v: %d keys, want %d", w, len(got), len(wantKeys))
		}
		for k, wantVals := range wantKeys {
			gotVals := got[k]
			if len(gotVals) != len(wantVals) {
				t.Fatalf("window %v key %s: %d values, want %d", w, k, len(gotVals), len(wantVals))
			}
			for i := range wantVals {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("window %v key %s value %d: %q want %q", w, k, i, gotVals[i], wantVals[i])
				}
			}
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	s, err := Open(Options{Dir: filepath.Join(b.TempDir(), "aar"), WriteBufferBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 1 << 40}
	key := []byte("key-000000")
	val := make([]byte, 84)
	b.SetBytes(int64(len(key) + len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(key, val, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendGetWindowCycle(b *testing.B) {
	s, err := Open(Options{Dir: filepath.Join(b.TempDir(), "aar"), WriteBufferBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Destroy()
	val := make([]byte, 84)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := window.Window{Start: int64(i) * 100, End: int64(i+1) * 100}
		for j := 0; j < 100; j++ {
			s.Append([]byte(fmt.Sprintf("k%d", j%8)), val, w)
		}
		for {
			part, err := s.GetWindow(w)
			if err != nil {
				b.Fatal(err)
			}
			if part == nil {
				break
			}
		}
	}
}
