package rmw

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
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
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{Dir: filepath.Join(t.TempDir(), "restored"), WriteBufferBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.restoreFrom(ckpt); err != nil {
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
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Put([]byte("x"), window.Window{Start: 0, End: 100}, []byte("y"))
	if err := dirty.restoreFrom(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointClosed(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if _, err := s.checkpointTo(t.TempDir(), nil, ""); err != ErrClosed {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Restore(nil); err != ErrClosed {
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

// chain drives delta checkpoints of one store, each cut extending the
// last committed one, next to a map oracle.
type chain struct {
	t         *testing.T
	s         *Store
	base      string
	n         int
	parent    *ckpt.Meta
	parentDir string
	oracle    map[id]string
}

func newChain(t *testing.T, s *Store) *chain {
	return &chain{t: t, s: s, base: t.TempDir(), oracle: make(map[id]string)}
}

func (c *chain) put(key string, w window.Window, v string) {
	c.t.Helper()
	if err := c.s.Put([]byte(key), w, []byte(v)); err != nil {
		c.t.Fatal(err)
	}
	c.oracle[id{key: key, w: w}] = v
}

func (c *chain) get(key string, w window.Window) {
	c.t.Helper()
	want, live := c.oracle[id{key: key, w: w}]
	got, ok, err := c.s.Get([]byte(key), w)
	if err != nil || ok != live || string(got) != want {
		c.t.Fatalf("get %s: %q,%v,%v want %q,%v", key, got, ok, err, want, live)
	}
	delete(c.oracle, id{key: key, w: w})
}

// cut writes the next checkpoint and returns its directory and result; it
// becomes the chain's tip only once commit is called.
func (c *chain) cut() (string, *ckpt.Result) {
	c.t.Helper()
	c.n++
	dir := filepath.Join(c.base, fmt.Sprintf("c%d", c.n))
	res, err := c.s.checkpointTo(dir, c.parent, c.parentDir)
	if err != nil {
		c.t.Fatal(err)
	}
	return dir, res
}

// commit makes the checkpoint at dir the chain's tip, as a committed
// checkpoint's rename would, and returns its files section.
func (c *chain) commit(dir string) *ckpt.Meta {
	c.t.Helper()
	meta, err := ckpttest.Meta(dir)
	if err != nil {
		c.t.Fatal(err)
	}
	c.parent, c.parentDir = meta, dir
	return meta
}

func (c *chain) restoresToOracle() {
	c.t.Helper()
	dst := openTest(c.t, Options{})
	if err := dst.restoreFrom(c.parentDir); err != nil {
		c.t.Fatal(err)
	}
	if got := dumpLive(c.t, dst); !reflect.DeepEqual(got, c.oracle) {
		c.t.Fatalf("%s restores %d aggregates, the oracle holds %d", c.parentDir, len(got), len(c.oracle))
	}
}

// TestRestoreRejectsZeroedStreamPage: a zeroed page inside the buffer dump
// — rot a marker-less frame would read as valid empty records — is a typed
// FrameError from Restore, never a silently shorter state.
func TestRestoreRejectsZeroedStreamPage(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	// Enough aggregates that the deflated dump spans more than three pages.
	for i := 0; i < 8000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), w, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadCut(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(c.Sections, func(sec ckpt.Section) bool { return sec.Name == ckpt.InstPrefix(0)+ckpt.KindDump })
	if i < 0 || c.Sections[i].Len < 3*4096 {
		t.Fatalf("buffer dump section %+v: too small to zero an inner page", c.Sections)
	}
	if err := faultfs.CorruptAtRest(nil, filepath.Join(dir, ckpt.CutName), faultfs.CorruptZeroPage, c.Sections[i].Off+4096); err != nil {
		t.Fatal(err)
	}
	var fe *binio.FrameError
	if err := openTest(t, Options{}).restoreFrom(dir); !errors.As(err, &fe) {
		t.Fatalf("restore over a zeroed buffer dump page: %v, want a FrameError", err)
	}
}

// TestRestoreRejectsZeroedSegmentPage: a zeroed page inside a segment a
// checkpoint links fails Restore with the frame's typed error, wherever in
// the file it lands — the last page too, which a log's recovery would take
// for a torn tail.
func TestRestoreRejectsZeroedSegmentPage(t *testing.T) {
	for _, last := range []bool{false, true} {
		t.Run(fmt.Sprintf("last=%v", last), func(t *testing.T) {
			s := openTest(t, Options{WriteBufferBytes: 256 << 10})
			w := window.Window{Start: 0, End: 100}
			for i := 0; i < 20_000; i++ {
				if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), w, []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			dir := filepath.Join(t.TempDir(), "ckpt")
			if _, err := s.checkpointTo(dir, nil, ""); err != nil {
				t.Fatal(err)
			}
			name := ckpt.FileName(0, logfile.SegmentName(segmentPrefix, 0))
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil || fi.Size() < 3*4096 {
				t.Fatalf("%s: %v, %v; want a segment of several pages", name, fi, err)
			}
			off := int64(4096)
			if last {
				off = fi.Size() - 1
			}
			if err := faultfs.CorruptAtRest(nil, filepath.Join(dir, name), faultfs.CorruptZeroPage, off); err != nil {
				t.Fatal(err)
			}
			dst := openTest(t, Options{})
			var fe *binio.FrameError
			if err := dst.restoreFrom(dir); !errors.As(err, &fe) {
				t.Fatalf("restore over a zeroed segment page: %v, want a FrameError", err)
			}
		})
	}
}

// phaseSegments returns the store's sealed segments: for each, whether
// every byte of it is durable.
func phaseSegments(s *Store) map[uint32]bool {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	out := make(map[uint32]bool)
	for _, sg := range s.segs.List() {
		if sg.Sealed {
			out[sg.ID] = sg.Log.DurableOffset() == sg.Log.Size()
		}
	}
	return out
}

// TestCutSyncsOnlyUndurableLiveLinks: a cut links every sealed segment it
// points into and lists in NeedSync exactly the live-directory links whose
// bytes are not yet durable — neither a link taken from the parent nor one
// of a segment already synced.
func TestCutSyncsOnlyUndurableLiveLinks(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	c := newChain(t, s)
	w := window.Window{Start: 0, End: 1 << 40} // nothing is consumed
	n := 0
	spill := func() {
		for i := 0; i < 300; i++ {
			c.put(fmt.Sprintf("id-%05d", n), w, fmt.Sprintf("v%015d", n))
			n++
		}
	}
	spill()
	dir, res := c.cut()
	inParent := phaseSegments(s)
	for sid, durable := range inParent {
		if durable {
			t.Fatalf("segment %d durable before any Sync", sid)
		}
		if path := filepath.Join(dir, ckpt.FileName(0, logfile.SegmentName(segmentPrefix, sid))); !slices.Contains(res.NeedSync, path) {
			t.Fatalf("the first cut links unsynced segment %d but does not sync it: %v", sid, res.NeedSync)
		}
	}
	c.commit(dir)
	c.restoresToOracle()

	spill()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	spill()
	atCut := phaseSegments(s)
	dir, res = c.cut()
	var fromParent, durableLive, undurableLive int
	for sid, durable := range atCut {
		path := filepath.Join(dir, ckpt.FileName(0, logfile.SegmentName(segmentPrefix, sid)))
		_, parentHas := inParent[sid]
		want := !parentHas && !durable
		switch {
		case parentHas:
			fromParent++
		case durable:
			durableLive++
		default:
			undurableLive++
		}
		if got := slices.Contains(res.NeedSync, path); got != want {
			t.Errorf("segment %d (in the parent %v, durable %v): in NeedSync %v, want %v", sid, parentHas, durable, got, want)
		}
	}
	if fromParent == 0 || durableLive == 0 || undurableLive == 0 {
		t.Fatalf("%d segments linked from the parent, %d durable and %d not durable from the live directory; want some of each",
			fromParent, durableLive, undurableLive)
	}
	if res.LinkedBytes == 0 {
		t.Fatal("the second cut linked nothing")
	}
	c.commit(dir)
	c.restoresToOracle()
}

// TestRestoreOutlivesReapedAndCleanedSegments: a committed cut keeps the
// segments it links after the live store has consumed, cleaned and
// unlinked every one of them, and even after the live store is gone.
func TestRestoreOutlivesReapedAndCleanedSegments(t *testing.T) {
	s, err := Open(Options{Dir: filepath.Join(t.TempDir(), "live"), WriteBufferBytes: diffBuffer, MaxSpaceAmplification: diffMSA})
	if err != nil {
		t.Fatal(err)
	}
	c := newChain(t, s)
	win := func(i int) window.Window { return window.Window{Start: int64(i % 7), End: int64(i%7) + 1000} }
	for i := 0; i < 600; i++ {
		c.put(fmt.Sprintf("old-%04d", i), win(i), fmt.Sprintf("v%015d", i))
	}
	dir, _ := c.cut()
	meta := c.commit(dir)
	atCut := maps.Clone(c.oracle)
	linked := phaseSegments(s)
	if len(linked) < 3 || len(meta.Files) < len(linked) {
		t.Fatalf("the cut links %d files of %d sealed segments; want several", len(meta.Files), len(linked))
	}
	// Two in three die now; the rest live on while new state evicts, so
	// cleaning moves some of them out of their segments, and then they die
	// too, emptying what is left.
	for i := 0; i < 600; i++ {
		if i%3 != 0 {
			c.get(fmt.Sprintf("old-%04d", i), win(i))
		}
	}
	later := window.Window{Start: 5000, End: 6000}
	for i := 0; s.SegmentStats().CompactionBytes == 0; i++ {
		if i == 20_000 {
			t.Fatal("no cleaning pass in 20 000 more puts")
		}
		c.put(fmt.Sprintf("new-%05d", i), later, "n")
		if i >= 200 {
			c.get(fmt.Sprintf("new-%05d", i-200), later)
		}
	}
	for i := 0; i < 600; i += 3 {
		c.get(fmt.Sprintf("old-%04d", i), win(i))
	}
	s.mu.Lock()
	for sid := range linked {
		if s.segs.Get(sid) != nil {
			t.Errorf("segment %d is still live", sid)
		}
	}
	s.mu.Unlock()
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	c.oracle = atCut
	c.restoresToOracle()
}

// TestConsumedAfterLinkIsClearedByNextCut: an indexed aggregate consumed
// after a cut linked its segment stays in that cut, and the next cut —
// which links the same file from it — clears its bit, so it does not come
// back.
func TestConsumedAfterLinkIsClearedByNextCut(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	c := newChain(t, s)
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 300; i++ {
		c.put(fmt.Sprintf("id-%04d", i), w, fmt.Sprintf("v%015d", i))
	}
	dir1, _ := c.cut()
	c.commit(dir1)
	atCut1 := maps.Clone(c.oracle)
	// The first identity indexed in a sealed segment: its file is linked.
	var victim id
	var sp span
	s.mu.Lock()
	for ident, at := range s.indexedLocked() {
		if s.segs.Get(at.seg).Sealed && (victim.key == "" || ident.key < victim.key) {
			victim, sp = ident, at
		}
	}
	s.mu.Unlock()
	if victim.key == "" {
		t.Fatal("nothing spilled into a sealed segment")
	}
	_, disk := s.HitCount()
	c.get(victim.key, victim.w)
	if _, d := s.HitCount(); d != disk+1 {
		t.Fatalf("%v was not read back from its segment", victim)
	}
	dir2, res := c.cut()
	c.commit(dir2)
	if res.LinkedBytes == 0 {
		t.Fatal("the second cut linked nothing")
	}
	bit := func(dir string) bool {
		b := cutSection(t, dir, ckpt.KindLive)
		segs, err := ckpt.DecodeLiveness(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range segs {
			if sl.ID == sp.seg {
				return sl.Live(sp.ord)
			}
		}
		return false
	}
	if !bit(dir1) || bit(dir2) {
		t.Fatalf("%v's bit: %v in the first cut, %v in the second; want set, then clear", victim, bit(dir1), bit(dir2))
	}
	c.restoresToOracle()
	c.parentDir, c.oracle = dir1, atCut1
	c.restoresToOracle()
}

// cutSection returns instance 0's section kind of the checkpoint in dir.
func cutSection(t *testing.T, dir, kind string) []byte {
	t.Helper()
	src, err := ckpttest.Source(dir)
	if err == nil {
		var b []byte
		if b, err = src.Section(kind); err == nil {
			return b
		}
	}
	t.Fatal(err)
	return nil
}

// cutFileCRCs returns the CRC-32C of a cut's liveness section, of its
// buffer dump, and of the segment files it links, concatenated in name
// order.
func cutFileCRCs(t *testing.T, dir string, meta *ckpt.Meta) [3]uint32 {
	t.Helper()
	var segs []byte
	for _, f := range meta.Files {
		b, err := os.ReadFile(filepath.Join(dir, ckpt.FileName(0, f.Logical)))
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, b...)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	return [3]uint32{crc32.Checksum(cutSection(t, dir, ckpt.KindLive), tab), crc32.Checksum(cutSection(t, dir, ckpt.KindDump), tab), crc32.Checksum(segs, tab)}
}

// TestCutFileBytesPinned pins the cut's formats — the liveness section, the
// buffer dump and the segment files it links — for a fixed sequence of
// puts, overwrites and fetches, cut three times: a change to any of them
// must change the pins, and with them what a checkpoint written before it
// restores as.
func TestCutFileBytesPinned(t *testing.T) {
	// Room for two 8-byte aggregates: a third evicts whichever ends last.
	s := openTest(t, Options{WriteBufferBytes: 120})
	c := newChain(t, s)
	win := func(i int) window.Window { return window.Window{Start: int64(i) * 10, End: int64(i)*10 + 25_000} }
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%04d", i), win(i), fmt.Sprintf("v%07d", i))
	}
	c.put("k0003", win(3), "V0000003")
	c.get("k0005", win(5))
	var crcs [][3]uint32
	dir, _ := c.cut()
	crcs = append(crcs, cutFileCRCs(t, dir, c.commit(dir)))
	c.restoresToOracle()

	c.put("k0010", win(10), "v0000010")
	c.get("k0001", win(1))
	dir, _ = c.cut()
	crcs = append(crcs, cutFileCRCs(t, dir, c.commit(dir)))
	c.restoresToOracle()

	c.get("k0000", win(0))
	c.get("k0008", win(8))
	c.put("k0011", win(11), "v0000011")
	dir, _ = c.cut()
	crcs = append(crcs, cutFileCRCs(t, dir, c.commit(dir)))
	c.restoresToOracle()
	want := [][3]uint32{
		{0xb661a6ad, 0x6f5ac38f, 0xcce2553e},
		{0x977eba04, 0x387d5c2b, 0xf631881f},
		{0xb66f1070, 0xe8bbc4af, 0x1d5f423d},
	}
	if !reflect.DeepEqual(crcs, want) {
		t.Fatalf("cut file CRCs %#x, want %#x", crcs, want)
	}
}

// TestDumpBytesPerAggregateBudget pins what a buffered aggregate costs in
// the CUT's dump section in the session regime: two thousand sessions,
// each a gap-wide window opened a little after the last, keys decimal ids
// in no order, with small counts as aggregates. The dump is segment
// blocks in lifetime order, deflated a chunk at a time; undeflated it
// took 13.02 bytes an aggregate.
func TestDumpBytesPerAggregateBudget(t *testing.T) {
	const (
		sessions = 2000
		gap      = 25_000
		budget   = 4.08
	)
	s := openTest(t, Options{WriteBufferBytes: 1 << 20})
	for i := 0; i < sessions; i++ {
		start := int64(1_700_000_000_000 + 37*i)
		key := []byte(strconv.Itoa(1_000_000 + i*7_919%100_000))
		if err := s.Put(key, window.Window{Start: start, End: start + gap}, binio.PutUvarint(nil, uint64(1+i%50))); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	if n := len(s.segs.List()); n != 0 {
		t.Fatalf("%d segments: the sessions spilled", n)
	}
	dump := cutSection(t, dir, ckpt.KindDump)
	perAgg := float64(len(dump)) / sessions
	t.Logf("dump: %d aggregates in %d bytes, %.2f B each", sessions, len(dump), perAgg)
	if perAgg > budget {
		t.Errorf("a buffered aggregate takes %.2f bytes in the dump, budget %.2f", perAgg, budget)
	}
}
