package rmw

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/metrics"
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
	upsert := func(key, val string) []byte {
		return encodeEntry([]byte{deltaKindUpsert}, id{key: key, w: w}, []byte(val))
	}
	tomb := func(key string) []byte {
		return encodeEntry([]byte{deltaKindTombstone}, id{key: key, w: w}, nil)
	}
	// A segment this small is one stream block: one frame around the
	// records' length-prefixed payloads.
	blockBytes := func(recs ...[]byte) int64 {
		var block []byte
		for _, rec := range recs {
			block = binio.PutBytes(block, rec)
		}
		return int64(len(binio.AppendRecord(nil, block)))
	}

	// Three aggregates nothing touches again keep the clean identities in
	// the majority, so every cut below extends its parent: with the
	// tombstones outnumbering them the stream would be rebased instead
	// (TestTombstoneHeavyCutsRebase).
	for _, k := range []string{"old-1", "old-2", "old-3"} {
		s.Put([]byte(k), w, []byte("o"))
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
	if want := blockBytes(upsert("kept", "k")); n != want {
		t.Fatalf("c2 shipped %d bytes, want only kept's upsert (%d)", n, want)
	}
	// Between c2's cut and its commit: kept, which c2 is shipping, and
	// held, which c1 already holds, are consumed; late is born.
	s.Put([]byte("late"), w, []byte("l"))
	s.Get([]byte("kept"), w)
	s.Get([]byte("held"), w)
	commit(res, dir)

	res, dir, n = cut("c3")
	if want := blockBytes(tomb("kept"), tomb("held"), upsert("late", "l")); n != want {
		t.Fatalf("c3 shipped %d bytes, want two tombstones and late's upsert (%d)", n, want)
	}
	commit(res, dir)

	dst := openTest(t, Options{})
	if err := dst.Restore(parentDir); err != nil {
		t.Fatal(err)
	}
	got := dumpLive(t, dst)
	want := map[id]string{{key: "late", w: w}: "l", {key: "old-1", w: w}: "o", {key: "old-2", w: w}: "o", {key: "old-3", w: w}: "o"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain restores %v, want late and the three old aggregates", got)
	}
	if n := s.CheckpointRebases(); n != 0 {
		t.Fatalf("%d cuts were rebased; every one should have extended its parent", n)
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
	res, err := c.s.CheckpointDelta(dir, c.parent, c.parentDir)
	if err != nil {
		c.t.Fatal(err)
	}
	return dir, res
}

func (c *chain) commit(dir string, res *ckpt.Result) *ckpt.FileState {
	c.t.Helper()
	res.Commit()
	meta, err := ckpt.ReadMeta(faultfs.OS, dir)
	if err != nil {
		c.t.Fatal(err)
	}
	c.parent, c.parentDir = meta, dir
	return meta.File(deltaLogical)
}

// records decodes one stream segment into its upserted and tombstoned
// identities, failing on an identity that appears twice: with at most one
// record per identity, a segment replays to the same state in any order,
// which is what lets a cut emit what it holds in memory first and what it
// spilled in log order.
func (c *chain) records(dir string, seg ckpt.Segment) (upserts, tombs map[id]bool) {
	c.t.Helper()
	upserts, tombs = make(map[id]bool), make(map[id]bool)
	err := ckpt.Replay(faultfs.OS, dir, &ckpt.FileState{Segments: []ckpt.Segment{seg}}, func(rec []byte) error {
		key, w, _, err := decodeEntry(rec[1:])
		if err != nil {
			return err
		}
		ident := id{key: string(key), w: w}
		if upserts[ident] || tombs[ident] {
			c.t.Fatalf("%s names %v twice", seg.Name, ident)
		}
		if rec[0] == deltaKindTombstone {
			tombs[ident] = true
		} else {
			upserts[ident] = true
		}
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return upserts, tombs
}

func (c *chain) restoresToOracle() {
	c.t.Helper()
	dst := openTest(c.t, Options{})
	if err := dst.Restore(c.parentDir); err != nil {
		c.t.Fatal(err)
	}
	if got := dumpLive(c.t, dst); !reflect.DeepEqual(got, c.oracle) {
		c.t.Fatalf("%s restores %d aggregates, the oracle holds %d", c.parentDir, len(got), len(c.oracle))
	}
}

// TestTombstoneHeavyCutsRebase is the session benchmark's checkpoint
// regime: state lives for less than a barrier interval, so at every cut
// all live aggregates are dirty and every identity of the previous cut
// is gone. Each such cut is written as a base — one segment, no
// tombstone, nothing linked — and the chain's tip restores to the oracle.
func TestTombstoneHeavyCutsRebase(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer}) // some state spills
	c := newChain(t, s)
	const perCut = 120
	for n := 0; n < 5; n++ {
		w := window.Window{Start: int64(n) * 100, End: int64(n)*100 + 100}
		for i := 0; i < perCut; i++ {
			c.put(fmt.Sprintf("gen%d-%03d", n, i), w, fmt.Sprintf("v%d", i))
			if n > 0 { // the previous generation's session fires
				c.get(fmt.Sprintf("gen%d-%03d", n-1, i), window.Window{Start: int64(n-1) * 100, End: int64(n-1)*100 + 100})
			}
		}
		dir, res := c.cut()
		fstate := c.commit(dir, res)
		if len(fstate.Segments) != 1 || res.LinkedBytes != 0 {
			t.Fatalf("cut %d: %d segments, %d bytes linked; want a one-segment base", n, len(fstate.Segments), res.LinkedBytes)
		}
		upserts, tombs := c.records(dir, fstate.Segments[0])
		if len(tombs) != 0 || len(upserts) != perCut {
			t.Fatalf("cut %d: %d upserts and %d tombstones, want %d and 0", n, len(upserts), len(tombs), perCut)
		}
		if got := s.CheckpointRebases(); got != int64(n) {
			t.Fatalf("after cut %d: %d rebases, want %d (the first cut has no parent to extend)", n, got, n)
		}
		c.restoresToOracle()
	}
}

// TestLongLivedStateStillExtendsItsParent: when most of the live state is
// clean at a cut, the rule leaves the delta alone — each cut links its
// parent's segments and adds one holding only what changed.
func TestLongLivedStateStillExtendsItsParent(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	c := newChain(t, s)
	w := window.Window{Start: 0, End: 1 << 40}
	for i := 0; i < 200; i++ {
		c.put(fmt.Sprintf("user-%03d", i), w, "0")
	}
	for n := 0; n < 5; n++ {
		for i := 0; i < 10; i++ { // a few updates, fewer departures, one arrival
			c.put(fmt.Sprintf("user-%03d", (n*37+i*11)%150), w, fmt.Sprintf("%d", n+1))
		}
		if n > 0 {
			c.get(fmt.Sprintf("user-%03d", 150+n), w)
			c.get(fmt.Sprintf("user-%03d", 160+n), w)
		}
		c.put(fmt.Sprintf("new-%d", n), w, "n")
		dir, res := c.cut()
		fstate := c.commit(dir, res)
		if len(fstate.Segments) != n+1 {
			t.Fatalf("cut %d: %d segments, want %d: the delta did not extend its parent", n, len(fstate.Segments), n+1)
		}
		if n > 0 {
			upserts, tombs := c.records(dir, fstate.Segments[n])
			if res.LinkedBytes == 0 || len(tombs) != 2 || len(upserts) > 11 {
				t.Fatalf("cut %d: linked %d bytes, shipped %d upserts and %d tombstones", n, res.LinkedBytes, len(upserts), len(tombs))
			}
		}
		c.restoresToOracle()
	}
	if n := s.CheckpointRebases(); n != 0 {
		t.Fatalf("%d rebases over a chain of long-lived state", n)
	}
}

// TestRebaseAfterFailedCommit: a cut the rule turns into a base never
// commits; the next cut, against the same parent, is a base again and
// must hold exactly the live state — the clean identities no mark names
// are not lost, and neither the identities consumed before the failed cut
// nor the ones consumed after it come back.
func TestRebaseAfterFailedCommit(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	c := newChain(t, s)
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("a-%03d", i), w, "a")
	}
	dir, res := c.cut()
	c.commit(dir, res)

	for i := 0; i < 80; i++ { // tombstones for most of what c1 holds
		c.get(fmt.Sprintf("a-%03d", i), w)
	}
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("b-%03d", i), w, "b")
	}
	_, failed := c.cut() // 80 tombstones against 20 clean: a base, and its commit never runs
	if s.CheckpointRebases() != 1 || failed.LinkedBytes != 0 {
		t.Fatalf("the failed cut: %d rebases, %d bytes linked; want a base", s.CheckpointRebases(), failed.LinkedBytes)
	}

	c.get("b-000", w) // captured by the failed cut: no longer fresh
	c.get("a-090", w) // clean until now
	c.put("c-000", w, "c")
	dir, res = c.cut()
	fstate := c.commit(dir, res)
	if s.CheckpointRebases() != 2 || len(fstate.Segments) != 1 {
		t.Fatalf("the retry: %d rebases, %d segments; want a second one-segment base", s.CheckpointRebases(), len(fstate.Segments))
	}
	upserts, tombs := c.records(dir, fstate.Segments[0])
	if len(tombs) != 0 || len(upserts) != len(c.oracle) {
		t.Fatalf("the retry ships %d upserts and %d tombstones for %d live aggregates", len(upserts), len(tombs), len(c.oracle))
	}
	for _, gone := range []string{"a-000", "a-079", "a-090", "b-000"} {
		if upserts[id{key: gone, w: w}] {
			t.Fatalf("%s was consumed and is in the base", gone)
		}
	}
	for _, kept := range []string{"a-080", "a-099", "b-001", "c-000"} {
		if !upserts[id{key: kept, w: w}] {
			t.Fatalf("%s is live and missing from the base", kept)
		}
	}
	c.restoresToOracle()

	// The chain carries on from the base: a small change is a delta again.
	c.put("c-001", w, "c")
	dir, res = c.cut()
	if fstate = c.commit(dir, res); len(fstate.Segments) != 2 || res.LinkedBytes == 0 {
		t.Fatalf("the cut after the base: %d segments, %d bytes linked; want a delta", len(fstate.Segments), res.LinkedBytes)
	}
	c.restoresToOracle()
}

// TestCheckpointReadsSpilledStateInRuns: a base over mostly spilled state
// reads the segments in coalesced runs of blocks, not one pread per
// aggregate or block, and the stream it writes holds every live identity
// exactly once.
func TestCheckpointReadsSpilledStateInRuns(t *testing.T) {
	var bd metrics.Breakdown
	s := openTest(t, Options{WriteBufferBytes: diffBuffer, Breakdown: &bd})
	c := newChain(t, s)
	for i := 0; i < 1000; i++ {
		w := window.Window{Start: int64(i % 5), End: int64(i%5) + 100}
		c.put(fmt.Sprintf("id-%04d", i), w, fmt.Sprintf("v%04d", i))
	}
	for i := 0; i < 1000; i += 3 { // holes in every segment
		c.get(fmt.Sprintf("id-%04d", i), window.Window{Start: int64(i % 5), End: int64(i%5) + 100})
	}
	s.mu.Lock()
	spilled := len(s.index)
	s.mu.Unlock()
	reads := bd.Calls(metrics.OpIOWait)
	dir, res := c.cut()
	reads = bd.Calls(metrics.OpIOWait) - reads
	fstate := c.commit(dir, res)
	// A segment here is an eviction of some twenty aggregates in a block or
	// two, and the holes are far smaller than a page: one read a segment,
	// each block decoded once.
	if segs := int64(s.SegmentStats().LiveSegments); spilled < 500 || reads == 0 || reads > segs {
		t.Fatalf("the cut read %d spilled aggregates from %d segments in %d reads", spilled, segs, reads)
	}
	upserts, tombs := c.records(dir, fstate.Segments[0])
	if len(upserts) != len(c.oracle) || len(tombs) != 0 {
		t.Fatalf("the base holds %d upserts and %d tombstones for %d live aggregates", len(upserts), len(tombs), len(c.oracle))
	}
	c.restoresToOracle()
}

// TestRestoreRejectsZeroedStreamPage: a zeroed page inside an rmw.dlt
// segment — rot a marker-less frame would read as valid empty records — is
// a typed FrameError from Restore, never a silently shorter state.
func TestRestoreRejectsZeroedStreamPage(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: diffBuffer})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), w, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.CheckpointDelta(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	meta, err := ckpt.ReadMeta(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := meta.File(deltaLogical).Segments[0]
	if seg.Len < 3*4096 {
		t.Fatalf("segment of %d bytes is too small to zero an inner page", seg.Len)
	}
	if err := faultfs.CorruptAtRest(nil, filepath.Join(dir, seg.Name), faultfs.CorruptZeroPage, 4096); err != nil {
		t.Fatal(err)
	}
	var fe *binio.FrameError
	if err := openTest(t, Options{}).Restore(dir); !errors.As(err, &fe) {
		t.Fatalf("restore over a zeroed rmw.dlt page: %v, want a FrameError", err)
	}
}

// streamCRC returns the CRC-32C of the checkpoint's rmw.dlt stream: its
// segment files concatenated in order.
func streamCRC(t *testing.T, dir string) uint32 {
	t.Helper()
	meta, err := ckpt.ReadMeta(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, seg := range meta.File(deltaLogical).Segments {
		b, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	return crc32.Checksum(stream, crc32.MakeTable(crc32.Castagnoli))
}

// TestCheckpointStreamBytesUnchanged pins the rmw.dlt format: a fixed
// sequence of puts, overwrites and fetches, cut three times, writes the
// same stream bytes as the store did when its segments held one frame per
// record, so a checkpoint written then still restores now. Every cut
// holds at most one record from memory and spills the rest one eviction
// at a time, so the stream's record order is fixed too.
func TestCheckpointStreamBytesUnchanged(t *testing.T) {
	// Room for one 8-byte aggregate: a second one evicts whichever ends
	// last.
	s := openTest(t, Options{WriteBufferBytes: 60})
	c := newChain(t, s)
	win := func(i int) window.Window { return window.Window{Start: int64(i) * 10, End: int64(i)*10 + 25_000} }
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%04d", i), win(i), fmt.Sprintf("v%07d", i))
	}
	c.put("k0003", win(3), "V0000003")
	c.get("k0005", win(5))
	var crcs []uint32
	dir, res := c.cut()
	c.commit(dir, res)
	crcs = append(crcs, streamCRC(t, dir))
	c.restoresToOracle()

	c.put("k0010", win(10), "v0000010")
	c.get("k0001", win(1))
	dir, res = c.cut()
	c.commit(dir, res)
	crcs = append(crcs, streamCRC(t, dir))
	c.restoresToOracle()

	c.get("k0000", win(0))
	dir, res = c.cut()
	if fstate := c.commit(dir, res); len(fstate.Segments) != 3 {
		t.Fatalf("the third cut's stream has %d segments, want a base and two deltas", len(fstate.Segments))
	}
	crcs = append(crcs, streamCRC(t, dir))
	c.restoresToOracle()
	// Recorded from the per-record segment layout.
	if want := []uint32{0x4ce09676, 0xc352a793, 0x805cdce6}; !reflect.DeepEqual(crcs, want) {
		t.Fatalf("rmw.dlt CRCs %#x, want %#x", crcs, want)
	}
}
