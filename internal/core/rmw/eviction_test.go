package rmw

import (
	"encoding/binary"
	"fmt"
	"testing"

	"flowkv/internal/window"
)

// sessionRun is the session benchmark's regime in miniature: one tuple a
// tick, in order, each opening a session of its own unless it is the late
// second tuple of an earlier one; a session fires — its count is fetched
// and removed for good — gap ticks after its last tuple. Live state is
// about three write buffers. drainWhole emulates the store that spills
// its whole buffer, by calling Flush whenever the next Put would find the
// buffer full.
type sessionRun struct {
	fromBuffer, fromDisk int64 // sessions consumed at their trigger
	flushed              int64 // aggregates flushed
}

func runSessions(t *testing.T, drainWhole bool) sessionRun {
	t.Helper()
	const (
		n      = 30_000
		gap    = 280       // about three buffers of live sessions
		late   = 62        // a session's second tuple, when it has one, is this late
		origin = 2_000_000 // every window bound encodes to the same varint length
	)
	s := openTest(t, Options{WriteBufferBytes: diffBuffer, MaxSpaceAmplification: diffMSA})
	type session struct {
		key []byte
		w   window.Window
	}
	open := func(i int) session {
		return session{
			key: []byte(fmt.Sprintf("s%06d", i)),
			w:   window.Window{Start: origin + int64(i), End: origin + int64(i) + gap},
		}
	}
	// hasSecond says whether the session opened at tick i gets a second
	// tuple at i+late: one in sixteen does. Such a session outstays its
	// window end — the eviction order's lower bound on its trigger — by
	// late ticks, in memory; with one in eight the saving in flushed
	// records is 19%, with one in four 17%.
	hasSecond := func(i int) bool { return i%16 == 1 && i+late < n }
	var out sessionRun
	tuple := func(se session) {
		var count uint64
		agg, ok, err := s.Get(se.key, se.w)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			count = binary.LittleEndian.Uint64(agg)
		}
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], count+1)
		if drainWhole {
			s.mu.Lock()
			full := s.overCap(s.bufBytes+int64(len(v)), len(s.buf)+1)
			s.mu.Unlock()
			if full {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Put(se.key, se.w, v[:]); err != nil {
			t.Fatal(err)
		}
	}
	fire := func(se session, tuples uint64) {
		b0, d0 := s.HitCount()
		agg, ok, err := s.Get(se.key, se.w)
		if err != nil || !ok || binary.LittleEndian.Uint64(agg) != tuples {
			t.Fatalf("session %s fired %v,%v,%v; want a count of %d", se.key, agg, ok, err, tuples)
		}
		b1, d1 := s.HitCount()
		out.fromBuffer += b1 - b0
		out.fromDisk += d1 - d0
	}
	for tick := 0; tick < n+gap+late; tick++ {
		// Sessions whose last tuple is gap ticks old fire first.
		if i := tick - gap; i >= 0 && i < n && i%4 != 3 && !hasSecond(i) {
			fire(open(i), 1)
		}
		if i := tick - gap - late; i >= 0 && i < n && hasSecond(i) {
			fire(open(i), 2)
		}
		if tick >= n {
			continue
		}
		if tick%4 == 3 && tick >= late && hasSecond(tick-late) {
			tuple(open(tick - late))
		} else if tick%4 != 3 {
			tuple(open(tick))
		}
	}
	if live := s.LiveStates(); live != 0 {
		t.Fatalf("%d sessions left after every trigger", live)
	}
	out.flushed = s.flushedAggs.Load()
	return out
}

// TestEvictionKeepsSoonestTriggersInMemory is the unit-level form of the
// benchmark claim: with live sessions at three times the buffer, evicting
// the quarter that ends last lets a fifth or more of the sessions be
// consumed at their trigger without ever touching disk and flushes a
// fifth fewer records than draining the whole buffer does on the same
// operations — and the counts are a property of the operations, not of
// map order: a second run repeats them.
func TestEvictionKeepsSoonestTriggersInMemory(t *testing.T) {
	evict, drain := runSessions(t, false), runSessions(t, true)
	t.Logf("evicting a quarter: %d sessions fired from memory, %d from disk, %d records flushed", evict.fromBuffer, evict.fromDisk, evict.flushed)
	t.Logf("draining the buffer: %d sessions fired from memory, %d from disk, %d records flushed", drain.fromBuffer, drain.fromDisk, drain.flushed)
	if evict.fromBuffer+evict.fromDisk != drain.fromBuffer+drain.fromDisk {
		t.Fatalf("the two runs fired %d and %d sessions", evict.fromBuffer+evict.fromDisk, drain.fromBuffer+drain.fromDisk)
	}
	fired := float64(evict.fromBuffer + evict.fromDisk)
	if share := float64(evict.fromBuffer) / fired; share < 0.20 {
		t.Errorf("%.1f%% of sessions fired from memory, want at least 20%%", 100*share)
	}
	if share := float64(drain.fromBuffer) / fired; share >= 0.05 {
		t.Errorf("draining the whole buffer fired %.1f%% of sessions from memory, want under 5%%: the emulation is off", 100*share)
	}
	if saved := 1 - float64(evict.flushed)/float64(drain.flushed); saved < 0.20 {
		t.Errorf("eviction flushed %.1f%% fewer records than a whole-buffer drain, want at least 20%%", 100*saved)
	}
	if again := runSessions(t, false); again != evict {
		t.Errorf("second run %+v, first %+v: the counts do not repeat", again, evict)
	}
	if again := runSessions(t, true); again != drain {
		t.Errorf("second whole-buffer run %+v, first %+v: the counts do not repeat", again, drain)
	}
}

// TestDrainsLeaveNothingBuffered: an eviction keeps three quarters of the
// buffer, but Flush and Sync go through the same flush with every
// buffered identity as a victim. (Close has never drained: an instance's
// log is not reopened, its state comes back from a checkpoint.)
func TestDrainsLeaveNothingBuffered(t *testing.T) {
	for name, drain := range map[string]func(*Store) error{"Flush": (*Store).Flush, "Sync": (*Store).Sync} {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, Options{WriteBufferBytes: diffBuffer})
			for i := 0; i < 100; i++ { // one eviction and then some
				w := window.Window{Start: int64(i % 7), End: int64(i%7) + 100}
				if err := s.Put([]byte(fmt.Sprintf("id-%06d", i)), w, []byte(fmt.Sprintf("v%015d", i))); err != nil {
					t.Fatal(err)
				}
			}
			s.mu.Lock()
			buffered, indexed := len(s.buf), len(s.index)
			s.mu.Unlock()
			if buffered == 0 || indexed == 0 || buffered+indexed != 100 {
				t.Fatalf("%d buffered and %d spilled before the drain, want some of each and 100 in all", buffered, indexed)
			}
			if err := drain(s); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			buffered, indexed = len(s.buf), len(s.index)
			s.mu.Unlock()
			if buffered != 0 || s.BufferedBytes() != 0 || indexed != 100 {
				t.Fatalf("%d entries (%d bytes) still buffered after %s, %d spilled", buffered, s.BufferedBytes(), name, indexed)
			}
			if got := dumpLive(t, s); len(got) != 100 {
				t.Fatalf("%d aggregates live after %s, want 100", len(got), name)
			}
		})
	}
}

// TestEvictionTakesEverythingWhenAQuarterIsNotEnough: when what the
// quarter would leave behind is still over the cap — one large aggregate
// that ends soon among many small ones that end late — the flush takes
// the whole buffer rather than leave it over its cap.
func TestEvictionTakesEverythingWhenAQuarterIsNotEnough(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("small-%02d", i)), window.Window{Start: 500, End: 600}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if s.FlushBytes() != 0 {
		t.Fatal("twenty small aggregates spilled a 4 KiB buffer")
	}
	if err := s.Put([]byte("large"), window.Window{Start: 0, End: 100}, make([]byte, 2*diffBuffer)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	buffered, indexed := len(s.buf), len(s.index)
	s.mu.Unlock()
	if buffered != 0 || indexed != 21 {
		t.Fatalf("%d buffered, %d spilled; want everything spilled", buffered, indexed)
	}
}
