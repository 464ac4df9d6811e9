package aar

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// countFS counts the window-log files created and the writes made to
// them.
type countFS struct {
	faultfs.FS
	creates, writes atomic.Int64
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (c *countFS) wrap(f faultfs.File, path string, err error) (faultfs.File, error) {
	if err != nil || !strings.HasPrefix(filepath.Base(path), "win_") {
		return f, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) Create(path string) (faultfs.File, error) {
	if strings.HasPrefix(filepath.Base(path), "win_") {
		c.creates.Add(1)
	}
	f, err := c.FS.Create(path)
	return c.wrap(f, path, err)
}

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	if flag&os.O_CREATE != 0 && strings.HasPrefix(filepath.Base(path), "win_") {
		c.creates.Add(1)
	}
	f, err := c.FS.OpenFile(path, flag, perm)
	return c.wrap(f, path, err)
}

// appendSeq appends n values to w over keys k0..k(keys-1), each value
// naming its key and a per-key sequence number that continues from seq,
// and advances seq.
func appendSeq(t *testing.T, s *Store, w window.Window, keys, n int, seq map[string]int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i%keys)
		if err := s.Append([]byte(k), []byte(fmt.Sprintf("%s-%05d", k, seq[k])), w); err != nil {
			t.Fatal(err)
		}
		seq[k]++
	}
}

// checkExactlyOnce asserts got holds, for every key of want, the values
// 0..want[k]-1 once each and in arrival order.
func checkExactlyOnce(t *testing.T, got map[string][]string, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("drained %d keys, want %d", len(got), len(want))
	}
	for k, n := range want {
		vs := got[k]
		if len(vs) != n {
			t.Fatalf("key %s: %d values, want %d", k, len(vs), n)
		}
		for i, v := range vs {
			if w := fmt.Sprintf("%s-%05d", k, i); v != w {
				t.Fatalf("key %s value %d = %q, want %q (repeat, drop or reorder)", k, i, v, w)
			}
		}
	}
}

// A window whose tuples never filled the buffer is served from memory:
// no window log is created, written, read or unlinked.
func TestNeverSpilledWindowWritesNothing(t *testing.T) {
	fsys := &countFS{FS: faultfs.OS}
	s := openTest(t, Options{FS: fsys, LoadPartitionBytes: 64})
	w := window.Window{Start: 0, End: 100}
	seq := map[string]int{}
	appendSeq(t, s, w, 5, 200, seq)
	checkExactlyOnce(t, drain(t, s, w), seq)
	if c, n := fsys.creates.Load(), fsys.writes.Load(); c != 0 || n != 0 {
		t.Fatalf("drain of an unspilled window: %d creates, %d writes; want none", c, n)
	}
	if s.LiveWindows() != 0 || s.BufferedBytes() != 0 {
		t.Fatalf("after drain: %d live windows, %d buffered bytes", s.LiveWindows(), s.BufferedBytes())
	}
}

// A window half on disk and half buffered returns every value once, in
// per-key arrival order, across many small partitions.
func TestHalfSpilledWindowDrainsOnce(t *testing.T) {
	for _, fine := range []bool{false, true} {
		t.Run(fmt.Sprintf("fine=%v", fine), func(t *testing.T) {
			s := openTest(t, Options{WriteBufferBytes: 4096, LoadPartitionBytes: 200, FlushChunkBytes: 256, FineGrained: fine})
			w := window.Window{Start: 0, End: 100}
			seq := map[string]int{}
			appendSeq(t, s, w, 7, 300, seq) // spills at least once
			if s.Flushes() == 0 {
				t.Fatal("no buffer-full flush: nothing on disk")
			}
			appendSeq(t, s, w, 9, 40, seq) // the buffered half
			if s.DiskUsage() == 0 || s.BufferedBytes() == 0 {
				t.Fatalf("disk %d B, buffer %d B: want both", s.DiskUsage(), s.BufferedBytes())
			}
			var calls int
			got := make(map[string][]string)
			for {
				part, err := s.GetWindow(w)
				if err != nil {
					t.Fatal(err)
				}
				if part == nil {
					break
				}
				calls++
				for _, kv := range part {
					for _, v := range kv.Values {
						got[string(kv.Key)] = append(got[string(kv.Key)], string(v))
					}
				}
			}
			if calls < 10 {
				t.Fatalf("%d partitions, want gradual loading", calls)
			}
			checkExactlyOnce(t, got, seq)
			if s.DiskUsage() != 0 || s.BufferedBytes() != 0 {
				t.Fatalf("after drain: disk %d B, buffer %d B", s.DiskUsage(), s.BufferedBytes())
			}
		})
	}
}

// A checkpoint, a Sync or a buffer-full flush landing between two
// GetWindow calls, after the drain has served part of the bucket from
// memory, writes the whole bucket: the live drain goes on without a
// repeat or a drop, and a checkpoint of that cut restores the full
// window. Another window takes appends throughout.
func TestFlushBetweenGetWindowCalls(t *testing.T) {
	const buf = 1 << 16
	for _, op := range []string{"checkpoint", "sync", "buffer-full"} {
		t.Run(op, func(t *testing.T) {
			s := openTest(t, Options{WriteBufferBytes: buf, LoadPartitionBytes: 300, FlushChunkBytes: 256})
			w := window.Window{Start: 0, End: 100}
			other := window.Window{Start: 100, End: 200}
			seq := map[string]int{}
			appendSeq(t, s, w, 6, 120, seq)
			if err := s.Flush(); err != nil { // the on-disk half
				t.Fatal(err)
			}
			appendSeq(t, s, w, 8, 160, seq) // the buffered half

			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			wg.Add(1)
			go func() { // small enough never to fill the buffer
				defer wg.Done()
				for i := 0; i < 500; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Append([]byte("o"), []byte(fmt.Sprint(i)), other); err != nil {
						t.Error(err)
						return
					}
				}
			}()

			got := make(map[string][]string)
			next := func() bool {
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
			served := func() int {
				s.ioMu.Lock()
				defer s.ioMu.Unlock()
				if rs := s.reads[w]; rs != nil {
					return rs.served
				}
				return 0
			}
			for served() == 0 {
				if !next() {
					t.Fatal("drained before serving from memory")
				}
			}

			cut := filepath.Join(t.TempDir(), "cut")
			switch op {
			case "checkpoint":
			case "sync":
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			case "buffer-full":
				flushes := s.Flushes()
				if err := s.Append([]byte("big"), make([]byte, buf), other); err != nil {
					t.Fatal(err)
				}
				if s.Flushes() == flushes {
					t.Fatal("no buffer-full flush")
				}
			}
			if _, err := s.checkpointTo(cut, nil, ""); err != nil {
				t.Fatal(err)
			}
			if served() != 0 {
				t.Fatal("the flush left entries counted as served from memory")
			}
			for next() {
			}
			checkExactlyOnce(t, got, seq)

			restored := openTest(t, Options{})
			if err := restored.restoreFrom(cut); err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, drain(t, restored, w), seq)
		})
	}
}

// The buffer copies tuples into shared blocks and hands a flushed or
// drained bucket's entry array to the next bucket. Neither may reach what
// a drain returned: values served from memory and from disk stay as they
// were while later windows fill, spill and drain, through appends from a
// caller that reuses its buffers.
func TestServedValuesOutliveBufferReuse(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 2048, LoadPartitionBytes: 1 << 20})
	var served []KeyValues
	want := map[string]bool{}
	key, val := make([]byte, 8), make([]byte, 12)
	for round := int64(0); round < 6; round++ {
		w := window.Window{Start: round, End: round + 1}
		for i := 0; i < 300; i++ {
			copy(key, fmt.Sprintf("k%07d", i%37))
			copy(val, fmt.Sprintf("r%d-v%09d", round, i))
			if err := s.Append(key, val, w); err != nil {
				t.Fatal(err)
			}
			want[string(key)+"="+string(val)] = true
		}
		for {
			part, err := s.GetWindow(w)
			if err != nil {
				t.Fatal(err)
			}
			if part == nil {
				break
			}
			served = append(served, part...)
		}
	}
	n := 0
	for _, kv := range served {
		for _, v := range kv.Values {
			if !want[string(kv.Key)+"="+string(v)] {
				t.Fatalf("served %q=%q, never appended (or overwritten since)", kv.Key, v)
			}
			n++
		}
	}
	if n != len(want) {
		t.Fatalf("served %d values, appended %d", n, len(want))
	}
	if s.Flushes() == 0 {
		t.Fatal("no window spilled")
	}
}
