package aur

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// pinnedSegmentCRCs are the CRC-32C of every segment file
// TestSegmentFileBytesArePinned leaves behind. The segment bytes are a
// function of the op script alone: which batches a flush writes and in
// what order, what a cleaning pass copies where, and which segment a
// checkpoint seals (the head it sealed, aur-000025.log, ends at the cut,
// and the flush after it opens aur-000026.log). A change to how the store
// tracks its batches must not move them.
var pinnedSegmentCRCs = map[string]uint32{
	"aur-000009.log": 0xfd18cdbe,
	"aur-000010.log": 0x68a0c85e,
	"aur-000011.log": 0x3448148a,
	"aur-000012.log": 0x9b9335c7,
	"aur-000013.log": 0xc2c1799b,
	"aur-000014.log": 0xb1660eda,
	"aur-000015.log": 0x60059feb,
	"aur-000016.log": 0xcd358366,
	"aur-000017.log": 0xd8b06755,
	"aur-000018.log": 0x988575ba,
	"aur-000019.log": 0x3f1a4ca5,
	"aur-000020.log": 0x3375f7aa,
	"aur-000021.log": 0xdc7268de,
	"aur-000022.log": 0x7347f5b0,
	"aur-000023.log": 0x418212b7,
	"aur-000024.log": 0x72e2960c,
	"aur-000025.log": 0x4740fb29,
	"aur-000026.log": 0xbee6e6a3,
}

// TestSegmentFileBytesArePinned runs a fixed op script on one goroutine —
// evicting flushes; consumes from the buffer and from disk; a consumed
// identity that lives again, twice; one cleaning pass; one that fails
// after its open survivor's log accepted blocks, which then lie past what
// was installed; a checkpoint's drain — and holds every segment file's
// CRC-32C to the pinned values.
func TestSegmentFileBytesArePinned(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	s := openTest(t, Options{WriteBufferBytes: 256 << 10, ReadBatchRatio: 0.1, minBatch: 4,
		MaxSpaceAmplification: 1.2, Predictor: coarsePredictor{}, FS: inj})
	oracle := make(map[id][]string)
	sess := func(i int) id {
		return id{key: fmt.Sprintf("s%04d", i), w: window.Window{Start: int64(i), End: int64(i) + gap}}
	}
	add := func(i, life int) {
		t.Helper()
		ident := sess(i)
		v := fmt.Sprintf("%d-%0*d", life, 1000, i)
		if err := s.Append([]byte(ident.key), []byte(v), ident.w, int64(i+life)); err != nil {
			t.Fatal(err)
		}
		oracle[ident] = append(oracle[ident], v)
	}
	consume := func(i int) {
		t.Helper()
		ident := sess(i)
		got, err := s.Get([]byte(ident.key), ident.w)
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "Get", ident, got, oracle[ident])
		delete(oracle, ident)
	}
	survivor := func() *segment {
		s.ioMu.Lock()
		defer s.ioMu.Unlock()
		return s.segs.Survivor()
	}

	// Evicting flushes: a quarter of a full buffer at a time.
	for i := 0; i < 800; i++ {
		add(i, 0)
	}
	if n := s.SegmentStats().LiveSegments; n < 5 {
		t.Fatalf("%d segments after 800 KiB through a 256 KiB buffer", n)
	}
	// Consumes from the buffer and from disk.
	for i := 0; i < 800; i++ {
		if i%4 != 0 {
			consume(i)
		}
	}
	if buf, disk := s.ConsumedCount(); buf == 0 || disk == 0 {
		t.Fatalf("%d consumed from the buffer, %d from disk; want both", buf, disk)
	}
	// Consumed identities live again: flushed into the open head, one of
	// them consumed there and appended to a third time.
	for _, i := range []int{1, 2, 3, 5, 6, 7} {
		add(i, 1)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	consume(2)
	add(2, 2)

	// One cleaning pass, which leaves its survivor open.
	cleanNow(t, s)
	surv := survivor()
	if s.SegmentStats().Compactions != 1 || surv == nil {
		t.Fatalf("%d passes, survivor %v; want one pass and its survivor open", s.SegmentStats().Compactions, surv)
	}

	// More evictions, most of them consumed, then a pass that fails once
	// the survivor's log reaches its file.
	for i := 800; i < 2000; i++ {
		add(i, 0)
	}
	for i := 800; i < 2000; i++ {
		if _, ok := oracle[sess(i)]; ok && i%3 != 1 {
			consume(i)
		}
	}
	if survivor() != surv {
		t.Fatalf("the survivor changed before the failing pass")
	}
	s.ioMu.Lock()
	before := surv.Log.Size()
	s.ioMu.Unlock()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: segmentName(surv.ID), Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
	s.ioMu.Lock()
	err := s.cleanLocked()
	s.ioMu.Unlock()
	if !errors.Is(err, faultfs.ErrDiskIO) || !inj.Fired() {
		t.Fatalf("the failing pass: err=%v fired=%v", err, inj.Fired())
	}
	inj.Reset()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.ioMu.Lock()
	after := surv.Log.Size()
	s.ioMu.Unlock()
	if !surv.Sealed || after <= before || s.SegmentStats().Compactions != 1 {
		t.Fatalf("after the failed pass: survivor sealed=%v, %d bytes (were %d), %d passes; want it sealed with blocks past the installed ones",
			surv.Sealed, after, before, s.SegmentStats().Compactions)
	}
	readAll(t, "after the failed pass", s, oracle)

	// A checkpoint's drain, and life after it.
	if _, err := s.checkpointTo(filepath.Join(t.TempDir(), "ckpt"), nil, ""); err != nil {
		t.Fatal(err)
	}
	for i := 2000; i < 2100; i++ {
		add(i, 0)
	}
	consume(5)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	readAll(t, "at the end", s, oracle)

	ents, err := os.ReadDir(s.dir.Root())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]uint32)
	var names []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(s.dir.Root(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
		names = append(names, e.Name())
	}
	slices.Sort(names)
	if len(got) != len(pinnedSegmentCRCs) {
		t.Errorf("%d segment files, %d pinned", len(got), len(pinnedSegmentCRCs))
	}
	for _, name := range names {
		if want, ok := pinnedSegmentCRCs[name]; !ok || got[name] != want {
			t.Errorf("%s: CRC-32C %#08x, pinned %#08x", name, got[name], want)
		}
	}
}
