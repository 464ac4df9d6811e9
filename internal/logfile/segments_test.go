package logfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// recFS records, in order, the fsyncs, closes and unlinks of the files a
// segment set owns, on top of a fault injector.
type recFS struct {
	*faultfs.Injector
	mu     sync.Mutex
	events []string // "sync <name>", "close <name>", "remove <name>"
}

type recFile struct {
	faultfs.File
	fs *recFS
}

func (r *recFS) note(what, path string) {
	r.mu.Lock()
	r.events = append(r.events, what+" "+filepath.Base(path))
	r.mu.Unlock()
}

// take returns the events recorded since the last take.
func (r *recFS) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.events
	r.events = nil
	return ev
}

func (r *recFS) Create(path string) (faultfs.File, error) {
	f, err := r.Injector.Create(path)
	if err != nil {
		return nil, err
	}
	return recFile{f, r}, nil
}

func (r *recFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := r.Injector.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return recFile{f, r}, nil
}

func (r *recFS) Remove(path string) error {
	err := r.Injector.Remove(path)
	if err == nil {
		r.note("remove", path)
	}
	return err
}

func (f recFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.fs.note("sync", f.Name())
	}
	return err
}

func (f recFile) Close() error {
	f.fs.note("close", f.Name())
	return f.File.Close()
}

// fakeStore is the smallest owner of a segment set: fixed-size records
// that live in one segment each, consumed and cleaned by id.
type fakeStore struct {
	t        *testing.T
	ioMu, mu sync.Mutex
	fs       *recFS
	dir      *Dir
	ss       *Segments[int]
	recs     map[int]uint32 // record → segment
	next     int
	made     int // payloads newX handed out
}

const (
	fakePrefix    = "seg"
	fakeSealBytes = 200
	fakePayload   = 20
)

func newFakeStore(t *testing.T) *fakeStore {
	fs := &recFS{Injector: faultfs.NewInjector(faultfs.OS)}
	dir, err := OpenDirFS(fs, filepath.Join(t.TempDir(), "inst"), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeStore{t: t, fs: fs, dir: dir, recs: make(map[int]uint32)}
	f.ss = NewSegments(dir, &f.ioMu, &f.mu, fakePrefix, fakeSealBytes, 1.2, func() int { f.made++; return f.made })
	return f
}

// appendRec appends one record to sg's log and returns its framed bytes;
// caller holds ioMu.
func (f *fakeStore) appendRec(sg *Segment[int]) int64 {
	f.t.Helper()
	_, n, err := sg.Log.Append(make([]byte, fakePayload))
	if err != nil {
		f.t.Fatal(err)
	}
	return int64(n)
}

// flush writes n records into the head, sealing it behind them with seal,
// and returns the head.
func (f *fakeStore) flush(n int, seal bool) *Segment[int] {
	f.t.Helper()
	f.ioMu.Lock()
	defer f.ioMu.Unlock()
	head, err := f.ss.OpenHead()
	if err != nil {
		f.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		live := f.appendRec(head)
		f.mu.Lock()
		f.recs[f.next] = head.ID
		head.Live += live
		f.mu.Unlock()
		f.next++
	}
	f.ss.Seal(head, seal)
	return head
}

// consume kills every record of sg for which kill says so.
func (f *fakeStore) consume(sg *Segment[int], kill func(rec int) bool) {
	f.ioMu.Lock()
	defer f.ioMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for rec, sid := range f.recs {
		if sid == sg.ID && kill(rec) {
			delete(f.recs, rec)
			sg.Live -= f.recBytes()
		}
	}
}

// recBytes is a record's framed size in a log.
func (f *fakeStore) recBytes() int64 {
	return int64(len(binio.AppendRecordV(nil, make([]byte, fakePayload), binio.FrameV1)))
}

// clean runs Clean with a copy that moves every live record of a victim
// and fails on victim failAt (1-based, 0 for never), and returns the
// victims the copy was handed.
func (f *fakeStore) clean(failAt int) ([]*Segment[int], error) {
	f.ioMu.Lock()
	defer f.ioMu.Unlock()
	var victims []*Segment[int]
	moved := make(map[int]uint32)
	err := f.ss.Clean(func(v *Segment[int], live int64, surv *Segment[int]) error {
		victims = append(victims, v)
		if len(victims) == failAt {
			return errors.New("copy failed")
		}
		f.mu.Lock()
		var recs []int
		for rec, sid := range f.recs {
			if sid == v.ID {
				recs = append(recs, rec)
			}
		}
		f.mu.Unlock()
		if got := int64(len(recs)) * f.recBytes(); got != live {
			f.t.Fatalf("victim %d: copy handed %d live bytes, the records hold %d", v.ID, live, got)
		}
		for _, rec := range recs {
			f.appendRec(surv)
			moved[rec] = v.ID
		}
		return nil
	}, func(surv *Segment[int]) (int64, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for rec, from := range moved {
			f.recs[rec] = surv.ID
			f.ss.Get(from).Live -= f.recBytes()
			surv.Live += f.recBytes()
		}
		return int64(len(moved)) * f.recBytes(), nil
	})
	return victims, err
}

// checkDir asserts that the directory holds exactly the files the table
// names, and that every live count is what the records say.
func (f *fakeStore) checkDir(what string) {
	f.t.Helper()
	f.ioMu.Lock()
	defer f.ioMu.Unlock()
	var want []string
	live := make(map[uint32]int64)
	f.mu.Lock()
	for _, sid := range f.recs {
		live[sid] += f.recBytes()
	}
	f.mu.Unlock()
	for _, sg := range f.ss.List() {
		want = append(want, SegmentName(fakePrefix, sg.ID))
		if sg.Live != live[sg.ID] {
			f.t.Fatalf("%s: segment %d counts %d live bytes, its records %d", what, sg.ID, sg.Live, live[sg.ID])
		}
	}
	ents, err := os.ReadDir(f.dir.Root())
	if err != nil {
		f.t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	if !slices.Equal(got, want) {
		f.t.Fatalf("%s: directory holds %v, the table names %v", what, got, want)
	}
}

// oneLog runs fn under a "1-log" subtest: a segment is one log, the shape
// these tests have always run under that name.
func oneLog(t *testing.T, fn func(t *testing.T, f *fakeStore)) {
	t.Run("1-log", func(t *testing.T) { fn(t, newFakeStore(t)) })
}

// TestSegmentsLifecycle: no file before the first head; a head sealed by
// its log's size; a reap that unlinks an emptied segment's log before it
// closes it, and that, when the unlink fails, leaves the segment tracked
// for the next reap to retry.
func TestSegmentsLifecycle(t *testing.T) {
	oneLog(t, func(t *testing.T, f *fakeStore) {
		f.checkDir("opened")
		if f.ss.Len() != 0 || f.ss.Head() != nil || f.made != 0 {
			t.Fatalf("a fresh set holds %d segments, head %v", f.ss.Len(), f.ss.Head())
		}
		head := f.flush(1, false)
		f.checkDir("first flush")
		if head.ID != 0 || head.Sealed || f.ss.Head() != head || head.X != 1 {
			t.Fatalf("first head: id %d, sealed %v, payload %d", head.ID, head.Sealed, head.X)
		}
		for !head.Sealed {
			if f.flush(1, false) != head {
				t.Fatal("a flush opened a second head while the first was open")
			}
		}
		f.ioMu.Lock()
		size := head.Log.Size()
		f.ioMu.Unlock()
		if size < fakeSealBytes || size >= fakeSealBytes+f.recBytes() || f.ss.Head() != nil {
			t.Fatalf("head sealed at %d bytes, seal size %d; still the head: %v", size, fakeSealBytes, f.ss.Head() == head)
		}
		f.checkDir("sealed")

		// A failed unlink keeps the segment, and the next reap retries.
		f.consume(head, func(int) bool { return true })
		f.fs.take()
		f.fs.SetRule(faultfs.Rule{Op: faultfs.OpRemove, PathContains: SegmentName(fakePrefix, head.ID)})
		f.ioMu.Lock()
		err := f.ss.Reap()
		f.ioMu.Unlock()
		if !errors.Is(err, faultfs.ErrInjected) || f.ss.Get(head.ID) != head || f.ss.Stats().SegmentsDropped != 0 {
			t.Fatalf("reap over a failing unlink: %v, still tracked %v", err, f.ss.Get(head.ID) != nil)
		}
		f.checkDir("failed unlink")
		f.fs.Reset()
		f.ioMu.Lock()
		err = f.ss.Reap()
		f.ioMu.Unlock()
		if err != nil || f.ss.Len() != 0 || f.ss.Stats().SegmentsDropped != 1 {
			t.Fatalf("retried reap: %v, %d segments left", err, f.ss.Len())
		}
		f.checkDir("reaped")
		var removes, closes int
		for _, ev := range f.fs.take() {
			switch {
			case strings.HasPrefix(ev, "remove "):
				if closes > 0 {
					t.Fatalf("the log was closed before it was unlinked: %v", ev)
				}
				removes++
			case strings.HasPrefix(ev, "close "):
				closes++
			}
		}
		if removes != 1 || closes != 1 {
			t.Fatalf("reap unlinked %d and closed %d logs, want one each", removes, closes)
		}
	})
}

// TestSegmentsCleaningVictims: a pass never takes the flush head, however
// dead, and does take the open survivor once it is the emptiest, sealing
// it early.
func TestSegmentsCleaningVictims(t *testing.T) {
	oneLog(t, func(t *testing.T, f *fakeStore) {
		odd := func(rec int) bool { return rec%2 == 1 }
		s0 := f.flush(4, true)
		s1 := f.flush(4, true)
		f.consume(s0, odd)
		f.consume(s1, odd)
		head := f.flush(4, false)
		f.consume(head, func(rec int) bool { return rec != 8 })
		f.checkDir("before the first pass")
		victims, err := f.clean(0)
		if err != nil {
			t.Fatal(err)
		}
		surv := f.ss.Survivor()
		if slices.Contains(victims, head) || !slices.Equal(victims, []*Segment[int]{s0, s1}) || surv == nil {
			t.Fatalf("victims %v, survivor %v; want segments 0 and 1, not the head", ids(victims), surv)
		}
		if st := f.ss.Stats(); st.Passes != 1 || st.Compactions != 1 || st.SegmentsDropped != 2 {
			t.Fatalf("after the first pass: %+v", st)
		}
		f.checkDir("after the first pass")

		// Three of the survivor's four records die: it is now the emptiest.
		f.consume(surv, func(rec int) bool { return rec != 0 })
		s3 := f.flush(4, true)
		f.consume(s3, func(rec int) bool { return rec%4 == 0 })
		victims, err = f.clean(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(victims) == 0 || victims[0] != surv || !surv.Sealed || f.ss.Get(surv.ID) != nil {
			t.Fatalf("second pass took %v; want the open survivor %d first, sealed and reaped", ids(victims), surv.ID)
		}
		if slices.Contains(victims, f.ss.Head()) {
			t.Fatal("the second pass took the head")
		}
		f.checkDir("after the second pass")
	})
}

func ids(segs []*Segment[int]) (out []uint32) {
	for _, sg := range segs {
		out = append(out, sg.ID)
	}
	return out
}

// TestSegmentsFailedPass: a copy that fails on the second victim installs
// nothing; a survivor the pass opened is removed, and one it found open is
// sealed and kept.
func TestSegmentsFailedPass(t *testing.T) {
	for _, preexisting := range []bool{false, true} {
		t.Run(fmt.Sprintf("survivor-open=%v", preexisting), func(t *testing.T) {
			oneLog(t, func(t *testing.T, f *fakeStore) {
				odd := func(rec int) bool { return rec%2 == 1 }
				if preexisting {
					s := f.flush(4, true)
					f.consume(s, func(rec int) bool { return rec != 0 })
					if _, err := f.clean(0); err != nil || f.ss.Survivor() == nil {
						t.Fatalf("setting up an open survivor: %v", err)
					}
				}
				s0, s1 := f.flush(4, true), f.flush(4, true)
				f.consume(s0, odd)
				f.consume(s1, odd)
				open, next := f.ss.Survivor(), f.ss.NextID()
				before := f.ss.Stats()
				f.mu.Lock()
				recs := recTable(f.recs)
				f.mu.Unlock()

				victims, err := f.clean(2)
				if err == nil || len(victims) != 2 {
					t.Fatalf("the failing pass: %v over victims %v", err, ids(victims))
				}
				f.mu.Lock()
				same := recTable(f.recs) == recs
				f.mu.Unlock()
				if st := f.ss.Stats(); !same || st.Passes != before.Passes || st.Compactions != before.Compactions {
					t.Fatalf("a failed pass installed something: records moved %v, stats %+v then %+v", !same, before, st)
				}
				if f.ss.Survivor() != nil {
					t.Fatal("a failed pass left a survivor open")
				}
				if preexisting {
					if !open.Sealed || f.ss.Get(open.ID) != open {
						t.Fatalf("the survivor the pass found open: sealed %v, tracked %v", open.Sealed, f.ss.Get(open.ID) != nil)
					}
				} else if f.ss.Get(next) != nil {
					t.Fatalf("the survivor the pass opened, %d, is still tracked", next)
				}
				f.checkDir("after the failed pass")
				if _, err := f.clean(0); err != nil {
					t.Fatal(err)
				}
				f.checkDir("after the next pass")
			})
		})
	}
}

// recTable renders a record table as a comparable string.
func recTable(recs map[int]uint32) string {
	keys := make([]int, 0, len(recs))
	for rec := range recs {
		keys = append(keys, rec)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, rec := range keys {
		fmt.Fprintf(&b, "%d:%d ", rec, recs[rec])
	}
	return b.String()
}

// TestSegmentsSync: Sync fsyncs the dirty logs only, in segment order, and
// nothing when all are durable; a pass that runs while one of
// its fsyncs is in flight moves records into a survivor the sweep never
// listed, and the sweep repeats for it.
func TestSegmentsSync(t *testing.T) {
	oneLog(t, func(t *testing.T, f *fakeStore) {
		syncAll := func() error { return f.ss.Sync(func() error { return nil }) }
		s0 := f.flush(4, true)
		s1 := f.flush(4, true)
		f.flush(1, false)
		f.fs.take()
		if err := syncAll(); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, sid := range []uint32{s0.ID, s1.ID, 2} {
			want = append(want, "sync "+SegmentName(fakePrefix, sid))
		}
		if got := f.fs.take(); !slices.Equal(got, want) {
			t.Fatalf("first sync: %v, want %v", got, want)
		}
		if err := syncAll(); err != nil || len(f.fs.take()) != 0 {
			t.Fatalf("a sync with every log durable: %v", err)
		}

		f.flush(1, false) // only the head is dirty
		f.consume(s0, func(rec int) bool { return rec%2 == 1 })
		f.fs.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassOnce})
		done := make(chan error, 1)
		go func() { done <- syncAll() }()
		for deadline := time.Now().Add(10 * time.Second); f.fs.Stalled() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the sync never reached its fsync")
			}
		}
		// The head's fsync hangs with ioMu released: clean under it.
		f.ss.msa = 1.0
		if victims, err := f.clean(0); err != nil || len(victims) == 0 || f.ss.Survivor() == nil {
			t.Fatalf("the pass under the sync: %v, victims %v", err, ids(victims))
		}
		surv := f.ss.Survivor()
		f.fs.Release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		f.ioMu.Lock()
		if l := surv.Log; l.DurableOffset() != l.Size() {
			t.Errorf("%s: durable %d of %d bytes after the sync the pass ran under", filepath.Base(l.Path()), l.DurableOffset(), l.Size())
		}
		f.ioMu.Unlock()
		f.fs.Reset()
		f.checkDir("after the sync")
	})
}
