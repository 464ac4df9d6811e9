package rmw

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "rmw")
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Destroy() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	if err := s.Put([]byte("k"), w, []byte("42")); err != nil {
		t.Fatal(err)
	}
	agg, ok, err := s.Get([]byte("k"), w)
	if err != nil || !ok || string(agg) != "42" {
		t.Fatalf("Get = %q,%v,%v", agg, ok, err)
	}
	// Fetch & remove: gone afterwards.
	if _, ok, _ := s.Get([]byte("k"), w); ok {
		t.Error("aggregate survived fetch & remove")
	}
}

func TestGetMissing(t *testing.T) {
	s := openTest(t, Options{})
	if _, ok, err := s.Get([]byte("nope"), window.Window{}); ok || err != nil {
		t.Errorf("missing: ok=%v err=%v", ok, err)
	}
}

func TestRMWCycle(t *testing.T) {
	// The canonical incremental-aggregation loop: Get, modify, Put.
	s := openTest(t, Options{WriteBufferBytes: 256})
	w := window.Window{Start: 0, End: 100}
	key := []byte("counter")
	for i := 0; i < 1000; i++ {
		var count uint64
		if agg, ok, err := s.Get(key, w); err != nil {
			t.Fatal(err)
		} else if ok {
			count = binary.LittleEndian.Uint64(agg)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], count+1)
		if err := s.Put(key, w, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	agg, ok, err := s.Get(key, w)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(agg); got != 1000 {
		t.Fatalf("final count = %d, want 1000", got)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Put([]byte("k"), w, []byte("old"))
	s.Put([]byte("k"), w, []byte("new"))
	agg, ok, _ := s.Get([]byte("k"), w)
	if !ok || string(agg) != "new" {
		t.Fatalf("Get = %q,%v", agg, ok)
	}
}

func TestKeyWindowIsolation(t *testing.T) {
	s := openTest(t, Options{})
	w1 := window.Window{Start: 0, End: 100}
	w2 := window.Window{Start: 100, End: 200}
	s.Put([]byte("k"), w1, []byte("in-w1"))
	s.Put([]byte("k"), w2, []byte("in-w2"))
	s.Put([]byte("j"), w1, []byte("j-w1"))
	if agg, _, _ := s.Get([]byte("k"), w1); string(agg) != "in-w1" {
		t.Errorf("k/w1 = %q", agg)
	}
	if agg, _, _ := s.Get([]byte("k"), w2); string(agg) != "in-w2" {
		t.Errorf("k/w2 = %q", agg)
	}
	if agg, _, _ := s.Get([]byte("j"), w1); string(agg) != "j-w1" {
		t.Errorf("j/w1 = %q", agg)
	}
}

func TestFlushedStateReadableFromDisk(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1}) // flush on every put
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := s.Put(k, w, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.BufferedBytes() != 0 {
		t.Fatalf("buffer should be empty after forced flushes: %d", s.BufferedBytes())
	}
	for i := 99; i >= 0; i-- {
		k := []byte(fmt.Sprintf("k%03d", i))
		agg, ok, err := s.Get(k, w)
		if err != nil || !ok || string(agg) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d: %q,%v,%v", i, agg, ok, err)
		}
	}
}

func TestOverwriteChurnReclaimsSpace(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, MaxSpaceAmplification: 1.3})
	w := window.Window{Start: 0, End: 100}
	// Repeated overwrites of the same keys kill every flushed copy; with
	// one aggregate per segment the dead ones are unlinked, never copied.
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			k := []byte(fmt.Sprintf("k%d", i))
			if err := s.Put(k, w, make([]byte, 200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.SegmentStats().SegmentsDropped == 0 {
		t.Fatal("no segments dropped despite heavy overwrite churn")
	}
	if n := s.SegmentStats().CompactionBytes; n != 0 {
		t.Errorf("cleaning re-appended %d bytes; wholly dead segments need no copying", n)
	}
	if amp := spaceAmp(s); amp > 2.0 {
		t.Errorf("space amplification %f after reclaim", amp)
	}
	// Everything still readable.
	for i := 0; i < 10; i++ {
		if _, ok, err := s.Get([]byte(fmt.Sprintf("k%d", i)), w); !ok || err != nil {
			t.Fatalf("k%d lost after reclaim: %v", i, err)
		}
	}
}

func TestCleaningReclaimsSpace(t *testing.T) {
	// Every segment holds 16 aggregates of which 12 are overwritten a
	// round later: no segment empties by itself, so the space can only
	// come back through cleaning passes that copy the 4 survivors.
	s := openTest(t, Options{WriteBufferBytes: 16 * (200 + 48), MaxSpaceAmplification: 1.3})
	w := window.Window{Start: 0, End: 100}
	want := make(map[string]string)
	for round := 0; round < 40; round++ {
		for i := 0; i < 16; i++ {
			k := fmt.Sprintf("hot%02d", i)
			if i >= 12 {
				k = fmt.Sprintf("cold%02d-%03d", i, round)
			}
			v := fmt.Sprintf("%s@%d%s", k, round, make([]byte, 180))
			if err := s.Put([]byte(k), w, []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
	}
	if st := s.SegmentStats(); st.Compactions == 0 || st.CompactionBytes == 0 {
		t.Fatalf("no cleaning despite churn: %d passes, %d bytes", st.Compactions, st.CompactionBytes)
	}
	if amp := spaceAmp(s); amp > 2.0 {
		t.Errorf("space amplification %f after cleaning", amp)
	}
	for k, v := range want {
		got, ok, err := s.Get([]byte(k), w)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("%s after cleaning: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestLiveStates(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Put([]byte("a"), w, []byte("1"))
	s.Put([]byte("b"), w, []byte("2"))
	if got := s.LiveStates(); got != 2 {
		t.Errorf("LiveStates = %d", got)
	}
	s.Get([]byte("a"), w)
	if got := s.LiveStates(); got != 1 {
		t.Errorf("LiveStates after get = %d", got)
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var bd metrics.Breakdown
	s := openTest(t, Options{WriteBufferBytes: 1, Breakdown: &bd})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), w, []byte("v"))
	}
	for i := 0; i < 50; i++ {
		s.Get([]byte(fmt.Sprintf("k%d", i)), w)
	}
	if bd.Calls(metrics.OpWrite) != 50 || bd.Calls(metrics.OpRead) != 50 {
		t.Errorf("op calls = %d/%d", bd.Calls(metrics.OpWrite), bd.Calls(metrics.OpRead))
	}
}

func TestClosedErrors(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if err := s.Put(nil, window.Window{}, nil); err != ErrClosed {
		t.Errorf("Put: %v", err)
	}
	if _, _, err := s.Get(nil, window.Window{}); err != ErrClosed {
		t.Errorf("Get: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRandomizedOverwriteWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := openTest(t, Options{WriteBufferBytes: 2048, MaxSpaceAmplification: 1.5})
	want := make(map[string]string)
	mkKW := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("key-%03d", i)), window.Window{Start: int64(i % 7 * 100), End: int64(i%7*100) + 100}
	}
	for step := 0; step < 10000; step++ {
		i := rng.Intn(300)
		k, w := mkKW(i)
		name := fmt.Sprintf("%s@%v", k, w)
		switch {
		case rng.Intn(100) < 70:
			v := fmt.Sprintf("v%08d", step)
			if err := s.Put(k, w, []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[name] = v
		default:
			agg, ok, err := s.Get(k, w)
			if err != nil {
				t.Fatal(err)
			}
			wv, exists := want[name]
			if ok != exists {
				t.Fatalf("step %d %s: ok=%v want exists=%v", step, name, ok, exists)
			}
			if ok && string(agg) != wv {
				t.Fatalf("step %d %s: %q want %q", step, name, agg, wv)
			}
			delete(want, name)
		}
	}
	for i := 0; i < 300; i++ {
		k, w := mkKW(i)
		name := fmt.Sprintf("%s@%v", k, w)
		agg, ok, err := s.Get(k, w)
		if err != nil {
			t.Fatal(err)
		}
		wv, exists := want[name]
		if ok != exists || (ok && string(agg) != wv) {
			t.Fatalf("drain %s: got %q,%v want %q,%v", name, agg, ok, wv, exists)
		}
	}
}

func BenchmarkRMWCycle(b *testing.B) {
	s, err := Open(Options{Dir: filepath.Join(b.TempDir(), "rmw"), WriteBufferBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 1 << 40}
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("k%05d", i%10000))
		var count uint64
		if agg, ok, err := s.Get(k, w); err != nil {
			b.Fatal(err)
		} else if ok {
			count = binary.LittleEndian.Uint64(agg)
		}
		binary.LittleEndian.PutUint64(buf[:], count+1)
		if err := s.Put(k, w, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// indexedLocked returns the span of every indexed slot; caller holds mu.
func (s *Store) indexedLocked() map[id]span {
	out := make(map[id]span)
	for ident, sl := range s.table {
		if sl.indexed {
			out[ident] = sl.sp
		}
	}
	return out
}

// slotCounts returns how many slots are buffered and how many indexed.
func slotCounts(s *Store) (buffered, indexed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered, len(s.indexedLocked())
}
