package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flowkv/internal/window"
)

// TestAARWindowOutlivesCutsAsSealedFiles drives one AAR window through
// twenty-one cuts, the last one in the middle of its drain, behind a flush
// of tuples appended after the drain began. Each cut seals the window's
// open file and links every file, so it copies no window byte (an AAR cut
// has no section that counts as copied). A restore from every fifth cut
// matches the live store's ForEachState dump at that cut. The drain returns
// every tuple once, in per-key arrival order, across all the window's
// files; and once it is exhausted no win_0_100.* file is left and the
// store holds as many files as before the window.
func TestAARWindowOutlivesCutsAsSealedFiles(t *testing.T) {
	opts := Options{Instances: 1, WriteBufferBytes: 2 << 10, LoadPartitionBytes: 512}
	s := openStore(t, AggHolistic, window.Fixed, opts)
	// A window far from the test's, alive throughout, so the store's file
	// count before the window is not zero.
	far := window.Window{Start: 1 << 30, End: 1<<30 + 100}
	for i := 0; i < 80; i++ {
		if err := s.Append([]byte(fmt.Sprintf("far-%02d", i)), []byte("x"), far, far.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().LiveSegments
	if before == 0 {
		t.Fatal("the far window left no file")
	}

	w := window.Window{Start: 0, End: 100}
	oracle := make(map[string][]string)
	seq := 0
	add := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("k%d", seq%7), fmt.Sprintf("v%05d", seq)
			if err := s.Append([]byte(k), []byte(v), w, w.Start); err != nil {
				t.Fatal(err)
			}
			oracle[k] = append(oracle[k], v)
			seq++
		}
	}
	peakFiles, peakFDs := 0, 0
	peak := func() {
		peakFiles = max(peakFiles, s.Stats().LiveSegments)
		if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
			peakFDs = max(peakFDs, len(fds))
		}
	}
	base := t.TempDir()
	parent := ""
	cut := func(c int) string {
		t.Helper()
		copied := s.Stats().CkptCopiedBytes
		ck := filepath.Join(base, fmt.Sprintf("c%02d", c))
		if err := s.CheckpointDelta(ck, parent, nil); err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
		if d := s.Stats().CkptCopiedBytes - copied; d != 0 {
			t.Fatalf("cut %d copied %d bytes; want every window file linked", c, d)
		}
		parent = ck
		peak()
		return ck
	}
	for c := 1; c <= 20; c++ {
		add(40 + c%3*10) // about a buffer's worth: most cuts follow a flush
		ck := cut(c)
		if c%5 == 0 {
			live := stateDump(t, s)
			if got := stateDump(t, restoreDelta(t, AggHolistic, window.Fixed, opts, ck)); !reflect.DeepEqual(got, live) {
				t.Fatalf("cut %d restores to %d entries unlike the live store's %d", c, len(got), len(live))
			}
		}
	}
	if files := s.Stats().LiveSegments - before; files < 10 {
		t.Fatalf("the window spans %d files after 20 cuts", files)
	}

	// The drain: a partition, then appends and a flush behind it, then a
	// cut, then the rest.
	add(20)
	got := make(map[string][]string)
	next := func() bool {
		t.Helper()
		part, err := s.GetWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range part {
			for _, v := range kv.Values {
				got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
			}
		}
		return part != nil
	}
	if !next() {
		t.Fatal("the window drained empty")
	}
	add(30)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	cut(21)
	for next() {
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("the drain returned %d keys unlike the %d appended, or out of order", len(got), len(oracle))
	}
	ents, err := os.ReadDir(instDir(s.opts.Dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), fmt.Sprintf("win_%d_%d.", w.Start, w.End)) {
			t.Errorf("%s is left after the window fired", e.Name())
		}
	}
	if n := s.Stats().LiveSegments; n != before {
		t.Errorf("the store holds %d files after the window fired, %d before it", n, before)
	}
	t.Logf("%d tuples over 21 cuts: peak %d window files open, peak %d fds in the process", seq, peakFiles, peakFDs)
}
