package rmw

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// segmentEntries returns the identities of sg's entries in the order
// its blocks hold them, dead ones included; caller holds ioMu.
func segmentEntries(t *testing.T, sg *segment) []id {
	t.Helper()
	sc, err := sg.Log.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var ids []id
	for sc.Scan() {
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			ids = append(ids, id{key: string(e.Key), w: e.Window})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestSegmentBytesPerAggregateBudget pins what a flushed aggregate costs
// on disk in the session regime: a thousand sessions, each a gap-wide
// window opened a little after the last, with one-byte aggregates. An
// entry is a 6-byte key, a byte each of Δstart, Δwidth and value count and
// a 2-byte aggregate, and the block's frame and header are shared by its
// entries: under 12 bytes an aggregate, after an eviction and in the
// survivor of a cleaning pass, where a frame of its own per aggregate took
// about 19. An eviction writes its victims in lifetime order, which is
// what keeps the deltas to a byte.
func TestSegmentBytesPerAggregateBudget(t *testing.T) {
	const (
		sessions = 1000
		gap      = 25_000
		budget   = 12.0
	)
	s := openTest(t, Options{WriteBufferBytes: 4 << 10})
	session := func(i int) ([]byte, window.Window) {
		start := int64(1_700_000_000 + 10*i)
		return []byte(fmt.Sprintf("k%04d", i)), window.Window{Start: start, End: start + gap}
	}
	for i := 0; i < sessions; i++ {
		k, w := session(i)
		if err := s.Put(k, w, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := s.flushedAggs.Load()
	if flushed < sessions/2 {
		t.Fatalf("%d of %d sessions flushed", flushed, sessions)
	}
	perAgg := float64(s.FlushBytes()) / float64(flushed)
	t.Logf("evictions: %d aggregates in %d bytes, %.2f B each", flushed, s.FlushBytes(), perAgg)
	if perAgg > budget {
		t.Errorf("an evicted aggregate takes %.2f bytes on disk, budget %.0f", perAgg, budget)
	}
	// Each segment is one eviction, written in lifetime order.
	s.ioMu.Lock()
	for _, sg := range s.segs.List() {
		if ids := segmentEntries(t, sg); !slices.IsSortedFunc(ids, byLifetime) {
			t.Errorf("segment %d holds its %d aggregates out of lifetime order", sg.ID, len(ids))
		}
	}
	s.ioMu.Unlock()

	// Consume every other flushed session: every sealed segment is half
	// dead, and the next eviction cleans.
	s.mu.Lock()
	var spilled []id
	for ident := range s.indexedLocked() {
		spilled = append(spilled, ident)
	}
	s.mu.Unlock()
	for i, ident := range spilled {
		if i%2 == 0 {
			if _, ok, err := s.Get([]byte(ident.key), ident.w); err != nil || !ok {
				t.Fatalf("%v: ok=%v err=%v", ident, ok, err)
			}
		}
	}
	for i := sessions; s.SegmentStats().Compactions == 0; i++ {
		if i == 2*sessions {
			t.Fatal("the store never cleaned")
		}
		s.ioMu.Lock()
		next := s.segs.NextID()
		s.ioMu.Unlock()
		k, w := session(i)
		if err := s.Put(k, w, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if s.SegmentStats().Compactions == 0 {
			continue
		}
		// The Put's eviction opened one segment, its cleaning pass the
		// survivor after it.
		s.ioMu.Lock()
		var moved, bytes int64
		for _, sg := range s.segs.List() {
			if sg.ID > next {
				moved += int64(len(segmentEntries(t, sg)))
				bytes += sg.Log.Size()
			}
		}
		s.ioMu.Unlock()
		st := s.SegmentStats()
		if moved == 0 || bytes != st.CompactionBytes {
			t.Fatalf("survivor holds %d aggregates in %d bytes; the pass re-appended %d", moved, bytes, st.CompactionBytes)
		}
		perAgg := float64(bytes) / float64(moved)
		t.Logf("cleaning: %d aggregates in %d bytes, %.2f B each", moved, bytes, perAgg)
		if perAgg > budget {
			t.Errorf("a cleaned aggregate takes %.2f bytes on disk, budget %.0f", perAgg, budget)
		}
	}
}

// TestCorruptBlockIsTyped damages a sealed, synced segment under one
// spilled aggregate — a bit flipped in the aggregate's byte, a zeroed
// page — and requires every read path over it to fail with the frame's
// typed error, never to return a value: Get, ForEachLive, CheckpointDelta
// and Scrub. A span that points at another entry of an intact block is a
// *logfile.BlockError from Get.
func TestCorruptBlockIsTyped(t *testing.T) {
	// open spills 8 000 sessions under a buffer whose evictions are
	// segments of several pages, syncs them, and returns the store with a
	// spilled identity in a sealed segment whose block starts at or past
	// minOff.
	open := func(t *testing.T, minOff int64) (*Store, id, span) {
		s := openTest(t, Options{WriteBufferBytes: 256 << 10})
		for i := 0; i < 8000; i++ {
			start := int64(1_700_000_000 + 10*i)
			w := window.Window{Start: start, End: start + 25_000}
			if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), w, []byte(fmt.Sprintf("agg-%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for ident, sp := range s.indexedLocked() {
			if sg := s.segs.Get(sp.seg); sg.Sealed && sp.off >= minOff && sg.Log.Size() >= sp.off+2*4096 {
				return s, ident, sp
			}
		}
		t.Fatal("no spilled aggregate where the test wants one")
		return nil, id{}, span{}
	}
	// readsFail runs every read path; each must fail as want says.
	readsFail := func(t *testing.T, s *Store, ident id, seg uint32, want func(error) bool) {
		t.Helper()
		agg, ok, err := s.Get([]byte(ident.key), ident.w)
		if !want(err) || ok || agg != nil {
			t.Errorf("Get: %q, %v, %v", agg, ok, err)
		}
		if err := s.ForEachLive(func([]byte, window.Window, []byte) error { return nil }); !want(err) {
			t.Errorf("ForEachLive: %v", err)
		}
		// A cut reads no segment: it links the file and records the CRC of
		// what was written, which the rotted file no longer matches, and
		// restoring the cut fails like the reads.
		dir := filepath.Join(t.TempDir(), "ckpt")
		if _, err := s.checkpointTo(dir, nil, ""); err != nil {
			t.Fatalf("CheckpointDelta: %v", err)
		}
		name := ckpt.InstPrefix(0) + logfile.SegmentName(segmentPrefix, seg) + ".seg-000000000000"
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := ckpttest.Meta(dir)
		if err != nil {
			t.Fatal(err)
		}
		f := meta.File(logfile.SegmentName(segmentPrefix, seg))
		if f == nil || len(f.Segments) != 1 || f.Segments[0].Name != name || f.Segments[0].CRC == binio.Checksum(b) {
			t.Errorf("the cut does not record %s, or records it as it is on disk, rot included: %+v", name, f)
		}
		if err := openTest(t, Options{}).restoreFrom(dir); !want(err) {
			t.Errorf("Restore of the cut: %v", err)
		}
	}
	frameError := func(err error) bool { return errors.As(err, new(*binio.FrameError)) }
	scrubFails := func(t *testing.T, s *Store, path string) {
		t.Helper()
		_, err := s.Scrub()
		var ce *logfile.CorruptError
		if !frameError(err) || !errors.As(err, &ce) || ce.Path != path {
			t.Errorf("Scrub: %v, want a FrameError in %s", err, path)
		}
	}

	t.Run("agg-bit-flip", func(t *testing.T) {
		s, ident, sp := open(t, 0)
		path := filepath.Join(s.dir.Root(), logfile.SegmentName(segmentPrefix, sp.seg))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		block, _, err := binio.ReadRecord(raw[sp.off : sp.off+int64(sp.n)])
		if err != nil {
			t.Fatal(err)
		}
		var e logfile.BlockEntry
		if err := logfile.SegmentEntryAt(block, int(sp.entry), &e); err != nil || string(e.Key) != ident.key {
			t.Fatalf("entry at %d: %q, %v", sp.entry, e.Key, err)
		}
		// The aggregate is the entry's last bytes; flip its last one.
		off := sp.off + int64(int(sp.n)-len(block)+e.Off+e.Size-1)
		if err := faultfs.CorruptAtRest(nil, path, faultfs.CorruptBitFlip, off); err != nil {
			t.Fatal(err)
		}
		readsFail(t, s, ident, sp.seg, frameError)
		scrubFails(t, s, path)
	})
	t.Run("zeroed-page", func(t *testing.T) {
		s, ident, sp := open(t, 4096)
		path := filepath.Join(s.dir.Root(), logfile.SegmentName(segmentPrefix, sp.seg))
		if err := faultfs.CorruptAtRest(nil, path, faultfs.CorruptZeroPage, sp.off); err != nil {
			t.Fatal(err)
		}
		readsFail(t, s, ident, sp.seg, frameError)
		scrubFails(t, s, path)
	})
	t.Run("misdirected-span", func(t *testing.T) {
		s, ident, sp := open(t, 0)
		s.mu.Lock()
		var other span
		for o, osp := range s.indexedLocked() {
			if o != ident && osp.seg == sp.seg && osp.off == sp.off {
				other = osp
				break
			}
		}
		if other.n == 0 {
			s.mu.Unlock()
			t.Fatal("the block holds one entry")
		}
		sp.entry = other.entry
		s.table[ident] = slot{sp: sp, indexed: true}
		s.mu.Unlock()
		agg, ok, err := s.Get([]byte(ident.key), ident.w)
		if be := (*logfile.BlockError)(nil); !errors.As(err, &be) || ok || agg != nil {
			t.Errorf("Get through a span at another entry: %q, %v, %v; want a BlockError", agg, ok, err)
		}
	})
}
