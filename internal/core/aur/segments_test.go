package aur

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// sealHead drains the buffer and seals the segment the drain wrote, as a
// full buffer's eviction would have; it returns the sealed segment.
func sealHead(t testing.TB, s *Store) *segment {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	head := s.segs.Head()
	if head == nil {
		t.Fatal("the drain left no open head")
	}
	s.segs.Seal(head, true)
	return head
}

// cleanNow runs what an evicting flush runs behind itself — a reap and,
// over MSA, one cleaning pass — without touching the head.
func cleanNow(t testing.TB, s *Store) {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.cleanLocked(); err != nil {
		t.Fatal(err)
	}
}

// segmentOracle is what a test knows about the log without asking the
// store's accounting: which identities are live, and for each identity the
// last flush whose batches a consume retired. A batch on disk is live
// exactly when its identity is live and a later flush wrote it.
type segmentOracle struct {
	values map[id][]string
	// retired is the store's flush sequence number when the identity was
	// last consumed: every batch of it a flush up to that one wrote is dead.
	retired map[id]uint64
}

func (o *segmentOracle) consume(s *Store, ident id) {
	delete(o.values, ident)
	s.ioMu.Lock()
	o.retired[ident] = s.seq
	s.ioMu.Unlock()
}

// checkSegments holds the store's segment table to the oracle and to the
// directory: every segment's live count is the bytes of the installed
// entries the oracle calls live, each identity's entry points at exactly
// those batches, no sealed segment sits empty, and the directory holds
// the table's files and nothing else.
func checkSegments(t *testing.T, what string, s *Store, o *segmentOracle) {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	want := make(map[string]bool)
	refs := make(map[id][]ref)
	for _, sg := range s.segs.List() {
		want[segmentName(sg.ID)] = true
		if sg.Sealed && sg.Live == 0 {
			t.Fatalf("%s: sealed segment %d holds nothing live and is still there", what, sg.ID)
		}
		if head, surv := s.segs.Head(), s.segs.Survivor(); sg.Sealed == (sg == head || sg == surv) {
			t.Fatalf("%s: segment %d sealed=%v, head=%v, survivor=%v", what, sg.ID, sg.Sealed, sg == head, sg == surv)
		}
		var live int64
		for _, e := range segmentEntries(t, sg) {
			if _, ok := o.values[e.ident]; !ok || e.seq <= o.retired[e.ident] || e.ord >= sg.Entries {
				continue
			}
			live += int64(e.size)
			refs[e.ident] = append(refs[e.ident], ref{seg: sg.ID, ord: e.ord, share: uint32(e.size)})
		}
		if sg.Live != live {
			t.Fatalf("%s: segment %d counts %d live bytes, the oracle finds %d", what, sg.ID, sg.Live, live)
		}
	}
	s.mu.Lock()
	spilled := 0
	byPlace := func(a, b ref) int { return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.ord, b.ord)) }
	for ident, e := range s.table {
		got := slices.Clone(e.refs)
		slices.SortFunc(got, byPlace)
		if !slices.Equal(got, refs[ident]) {
			t.Fatalf("%s: %v points at %+v, the oracle finds %+v", what, ident, got, refs[ident])
		}
		spilled += min(len(e.refs), 1)
	}
	if spilled != len(refs) {
		t.Fatalf("%s: %d entries point at batches, the oracle finds %d identities with live batches", what, spilled, len(refs))
	}
	s.mu.Unlock()
	ents, err := os.ReadDir(s.dir.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Fatalf("%s: %s is in the directory and not in the segment table", what, e.Name())
		}
		delete(want, e.Name())
	}
	if len(want) != 0 {
		t.Fatalf("%s: the segment table names files the directory lacks: %v", what, want)
	}
}

// TestSegmentedLogDifferential drives Append / Get / Read / Drop and delta
// checkpoints with restores against a map, with a 4 KiB buffer and MSA 1.2
// so that evictions, drops and cleaning passes happen every few dozen
// steps and identities are reused after they are consumed. Every read is
// held to the oracle's append order, and every few steps — and right
// after every pass — the segment table is held to the oracle.
func TestSegmentedLogDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 1792055127883741522} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runSegmentDifferential(t, seed) })
	}
	// A fresh seed every run, under a stable name; the seed is logged.
	seed := time.Now().UnixNano()
	t.Run("seed-random", func(t *testing.T) { t.Logf("seed %d", seed); runSegmentDifferential(t, seed) })
}

func runSegmentDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opts := Options{
		WriteBufferBytes:      diffBuffer,
		ReadBatchRatio:        0.1,
		minBatch:              4,
		MaxSpaceAmplification: 1.2,
		Predictor:             coarsePredictor{},
	}
	base := t.TempDir()
	open := func(name string) *Store {
		o := opts
		o.Dir = filepath.Join(base, name)
		return openTest(t, o)
	}
	s := open("store-0")
	o := &segmentOracle{values: make(map[id][]string), retired: make(map[id]uint64)}
	ident := func(i int) id {
		return id{key: fmt.Sprintf("k%03d", i%97), w: window.Window{Start: int64(i), End: int64(i) + gap}}
	}
	var (
		parent                    *ckpt.Meta
		parentDir                 string
		cuts, restores            int
		passes, dropped, carried  int64
		carriedDropped, maxSegs   int64
		linked, copied, restoredB int64
	)
	const steps = 8000
	for step := 0; step < steps; step++ {
		target := ident(rng.Intn(240))
		before := s.SegmentStats().Compactions
		switch r := rng.Intn(100); {
		case r < 64:
			v := fmt.Sprintf("v%06d", step)
			if err := s.Append([]byte(target.key), []byte(v), target.w, int64(step)+rng.Int63n(16)); err != nil {
				t.Fatal(err)
			}
			o.values[target] = append(o.values[target], v)
		case r < 82:
			got, err := s.Get([]byte(target.key), target.w)
			if err != nil {
				t.Fatal(err)
			}
			wantValues(t, fmt.Sprintf("step %d Get", step), target, got, o.values[target])
			o.consume(s, target)
		case r < 92:
			got, err := s.Read([]byte(target.key), target.w)
			if err != nil {
				t.Fatal(err)
			}
			wantValues(t, fmt.Sprintf("step %d Read", step), target, got, o.values[target])
		case r < 97 || rng.Intn(5) != 0:
			if err := s.Drop([]byte(target.key), target.w); err != nil {
				t.Fatal(err)
			}
			o.consume(s, target)
		default: // a delta checkpoint, and half the time life goes on in a store restored from it
			cuts++
			dir := filepath.Join(base, fmt.Sprintf("ckpt-%d", cuts))
			res, err := s.checkpointTo(dir, parent, parentDir)
			if err != nil {
				t.Fatal(err)
			}
			linked, copied = linked+res.LinkedBytes, copied+res.CopiedBytes
			if parent, err = ckpttest.Meta(dir); err != nil {
				t.Fatal(err)
			}
			parentDir = dir
			if rng.Intn(2) == 0 {
				restores++
				carried, carriedDropped = carried+s.SegmentStats().Compactions, carriedDropped+s.SegmentStats().SegmentsDropped
				old := s
				s = open(fmt.Sprintf("store-%d", restores))
				if err := s.restoreFrom(dir); err != nil {
					t.Fatal(err)
				}
				old.Destroy()
				// Flushes of the restored store number on from the highest
				// sequence the checkpoint's segments hold, which may be below
				// where the old store had got to.
				s.ioMu.Lock()
				for ident, seq := range o.retired {
					o.retired[ident] = min(seq, s.seq)
				}
				s.ioMu.Unlock()
				restoredB += s.DiskUsage()
				before = 0
				readAll(t, "restored from "+filepath.Base(dir), s, o.values)
				checkSegments(t, fmt.Sprintf("step %d, restored", step), s, o)
			}
		}
		maxSegs = max(maxSegs, int64(s.SegmentStats().LiveSegments))
		if step%25 == 0 || s.SegmentStats().Compactions != before {
			checkSegments(t, fmt.Sprintf("step %d", step), s, o)
		}
	}
	passes, dropped = carried+s.SegmentStats().Compactions, carriedDropped+s.SegmentStats().SegmentsDropped
	t.Logf("seed %d: %d cleaning passes, %d segments dropped, at most %d alive; %d checkpoints linked %d and copied %d bytes, %d restores of %d bytes",
		seed, passes, dropped, maxSegs, cuts, linked, copied, restores, restoredB)
	if passes < 5 || dropped < 20 || restores == 0 || linked == 0 {
		t.Errorf("the run is not exercising what it is for")
	}
	for ident, want := range o.values {
		got, err := s.Get([]byte(ident.key), ident.w)
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "final Get", ident, got, want)
		o.consume(s, ident)
	}
	cleanNow(t, s)
	checkSegments(t, "after every identity was consumed", s, o)
	if live := s.LiveStates(); live != 0 {
		t.Fatalf("%d states live after every one was consumed", live)
	}
}

// TestSurvivorKeepsAppendOrder pins the hazard a survivor segment brings:
// an identity with batches in three sealed segments, the newest cleaned
// first and the oldest in a later pass into the same open survivor, so
// that the survivor lists the newer batch before the older one. The flush
// sequence in the block headers must bring them back in order, before and
// after a restore.
func TestSurvivorKeepsAppendOrder(t *testing.T) {
	opts := Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0, MaxSpaceAmplification: 1.05}
	s := openTest(t, opts)
	w := window.Window{Start: 0, End: gap}
	filler := func(seg, i int) string { return fmt.Sprintf("filler-%d-%02d", seg, i) }
	var segs [3]*segment
	for seg := range segs {
		if err := s.Append([]byte("x"), []byte(fmt.Sprintf("x-%d", seg)), w, int64(seg)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := s.Append([]byte(filler(seg, i)), []byte("padding-padding"), w, int64(seg)); err != nil {
				t.Fatal(err)
			}
		}
		segs[seg] = sealHead(t, s)
	}
	empty := func(seg int) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if got := mustGet(t, s, filler(seg, i), w); len(got) != 1 {
				t.Fatalf("%s: %v", filler(seg, i), got)
			}
		}
		cleanNow(t, s)
	}
	empty(2) // the newest goes first
	s.ioMu.Lock()
	surv := s.segs.Survivor()
	s.ioMu.Unlock()
	if s.SegmentStats().Compactions != 1 || surv == nil || s.SegmentStats().LiveSegments != 3 {
		t.Fatalf("%d passes, survivor %v, %d segments; want the newest segment cleaned into a survivor", s.SegmentStats().Compactions, surv, s.SegmentStats().LiveSegments)
	}
	empty(0) // then the oldest, into the same survivor
	s.ioMu.Lock()
	var seqs []uint64
	for _, e := range segmentEntries(t, surv) {
		if e.ident.key == "x" {
			seqs = append(seqs, e.seq)
		}
	}
	same := s.segs.Survivor() == surv
	s.ioMu.Unlock()
	if s.SegmentStats().Compactions != 2 || !same || len(seqs) != 2 || seqs[0] <= seqs[1] {
		t.Fatalf("%d passes, same survivor %v, x's batches there were written by flushes %v; want the newer one first", s.SegmentStats().Compactions, same, seqs)
	}
	want := []string{"x-0", "x-1", "x-2"}
	got, err := s.Read([]byte("x"), w)
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "after two passes", id{"x", w}, got, want)

	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	dst := openTest(t, opts)
	if err := dst.restoreFrom(dir); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, dst, "x", w); !slices.Equal(got, want) {
		t.Fatalf("restored x = %v, want %v", got, want)
	}
}

// TestBlocksPastIndexedAreNeverRead: a cleaning pass that failed after its
// survivor's log had accepted some of its blocks leaves those blocks past
// its installed entries, holding copies of batches that are still live
// where they were. Nothing may read them: not a miss, not the next pass —
// which, counting them as dead bytes, cleans the survivor they sit in —
// and not a checkpoint.
func TestBlocksPastIndexedAreNeverRead(t *testing.T) {
	opts := Options{WriteBufferBytes: 1 << 20, ReadBatchRatio: 0, MaxSpaceAmplification: 1.05}
	s := openTest(t, opts)
	w := window.Window{Start: 0, End: gap}
	for seg := 0; seg < 2; seg++ {
		for i := 0; i < 10; i++ {
			if err := s.Append([]byte(fmt.Sprintf("k%d-%d", seg, i)), []byte("value"), w, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		sealHead(t, s)
	}
	for i := 1; i < 10; i++ {
		mustGet(t, s, fmt.Sprintf("k0-%d", i), w)
	}
	cleanNow(t, s) // k0-0 moves into a survivor
	s.ioMu.Lock()
	surv := s.segs.Survivor()
	if surv == nil || s.SegmentStats().Compactions != 1 {
		t.Fatalf("%d passes, survivor %v", s.SegmentStats().Compactions, surv)
	}
	// What the failed pass would have left: a block holding a copy of
	// k0-0's batch, appended and never installed.
	stray := segmentBlocks(t, surv)[0]
	if _, _, err := surv.Log.Append(stray); err != nil {
		t.Fatal(err)
	}
	s.segs.Seal(surv, true)
	s.ioMu.Unlock()

	check := func(what string, s *Store) {
		t.Helper()
		got, err := s.Read([]byte("k0-0"), w)
		if err != nil || len(got) != 1 {
			t.Fatalf("%s: k0-0 = %q, err %v; want its one value once", what, got, err)
		}
	}
	check("after the stray block", s)
	for i := 1; i < 10; i++ {
		mustGet(t, s, fmt.Sprintf("k1-%d", i), w)
	}
	cleanNow(t, s) // segment 1 and the sealed survivor, half of it the stray
	check("after another pass", s)
	if s.SegmentStats().Compactions != 2 || s.segs.Get(surv.ID) != nil {
		t.Fatalf("%d passes, the stray's survivor still there: %v; want it cleaned", s.SegmentStats().Compactions, s.segs.Get(surv.ID) != nil)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	dst := openTest(t, opts)
	if err := dst.restoreFrom(dir); err != nil {
		t.Fatal(err)
	}
	check("restored", dst)
	_, held, _ := s.Peek([]byte("k0-0"), w)
	if _, onDisk, _ := dst.Peek([]byte("k0-0"), w); onDisk != held || held == 0 {
		t.Fatalf("restored k0-0 counts %d bytes on disk, the store held %d", onDisk, held)
	}
}

// TestDeltaCheckpointLinksSealedSegments: a checkpoint seals the open
// head and hard-links every segment holding a live batch, copying only the
// liveness section and the Stat stream; a delta taken some evictions later
// links every segment the parent held and the store still does from the
// parent, whole, and the segments sealed since from the store. A
// checkpoint taken right after a cleaning pass restores to the oracle.
func TestDeltaCheckpointLinksSealedSegments(t *testing.T) {
	opts := Options{WriteBufferBytes: diffBuffer, ReadBatchRatio: 0, MaxSpaceAmplification: 1.2}
	s := openTest(t, opts)
	oracle := make(map[id][]string)
	next := 0
	appendSessions := func(until func() bool) {
		t.Helper()
		for ; !until(); next++ {
			ident := id{key: fmt.Sprintf("s%05d", next), w: window.Window{Start: int64(next), End: int64(next) + gap}}
			v := fmt.Sprintf("v%05d", next)
			if err := s.Append([]byte(ident.key), []byte(v), ident.w, int64(next)); err != nil {
				t.Fatal(err)
			}
			oracle[ident] = append(oracle[ident], v)
		}
	}
	appendSessions(func() bool { return s.SegmentStats().LiveSegments >= 4 })
	base := filepath.Join(t.TempDir(), "base")
	res, err := s.checkpointTo(base, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := ckpttest.Meta(base)
	if err != nil {
		t.Fatal(err)
	}
	// Every segment the base names is whole and linked, and sealed now.
	checkLinked := func(dir string, meta *ckpt.Meta, res *ckpt.Result) {
		t.Helper()
		var files int64
		s.ioMu.Lock()
		byName := make(map[string]*segment)
		for _, sg := range s.segs.List() {
			byName[segmentName(sg.ID)] = sg
		}
		for _, f := range meta.Files {
			files += f.Len
			sg := byName[f.Logical]
			if sg == nil || !sg.Sealed || sg.Log.Size() != f.Len {
				t.Fatalf("%s: the checkpoint holds %d bytes of it, the store %+v", f.Logical, f.Len, sg)
			}
		}
		s.ioMu.Unlock()
		sections, err := ckpttest.SectionBytes(dir, ckpt.KindLive, ckpt.KindDump)
		if err != nil {
			t.Fatal(err)
		}
		if res.LinkedBytes != files || res.CopiedBytes != sections || len(meta.Files) < 3 {
			t.Fatalf("linked %d and copied %d bytes; want the %d segments' %d linked and the %d bytes of the liveness and Stat sections copied",
				res.LinkedBytes, res.CopiedBytes, len(meta.Files), files, sections)
		}
	}
	checkLinked(base, parent, res)

	target := s.SegmentStats().LiveSegments + 3
	appendSessions(func() bool { return s.SegmentStats().LiveSegments >= target })
	delta := filepath.Join(t.TempDir(), "delta")
	res, err = s.checkpointTo(delta, parent, base)
	if err != nil {
		t.Fatal(err)
	}
	child, err := ckpttest.Meta(delta)
	if err != nil {
		t.Fatal(err)
	}
	checkLinked(delta, child, res)
	var fromParent int
	for _, f := range child.Files {
		if p := parent.File(f.Logical); p != nil {
			if *p != f {
				t.Fatalf("%s: the parent holds %+v, the delta %+v", f.Logical, *p, f)
			}
			name := ckpt.FileName(0, f.Logical)
			same(t, filepath.Join(base, name), filepath.Join(delta, name))
			fromParent++
		}
	}
	if fromParent == 0 || fromParent == len(child.Files) {
		t.Fatalf("%d of the delta's %d segments are the parent's: want some, and some sealed since", fromParent, len(child.Files))
	}

	// A cut right behind a cleaning pass.
	n := 0
	for ident := range oracle {
		if n++; n%3 != 0 {
			if _, err := s.Get([]byte(ident.key), ident.w); err != nil {
				t.Fatal(err)
			}
			delete(oracle, ident)
		}
	}
	before := s.SegmentStats().Compactions
	appendSessions(func() bool { return s.SegmentStats().Compactions > before })
	after := filepath.Join(t.TempDir(), "after")
	if _, err := s.checkpointTo(after, child, delta); err != nil {
		t.Fatal(err)
	}
	dst := openTest(t, opts)
	if err := dst.restoreFrom(after); err != nil {
		t.Fatal(err)
	}
	readAll(t, "restored from the cut behind a pass", dst, oracle)
}

// TestFailedCleaningPassLeavesVictimsIntact fails the disk in the middle
// of a cleaning pass's copy, once with the pass opening its survivor
// segment and once with one already open. Either way nothing was
// installed: every victim is where it was and reads back, a survivor the
// pass opened is gone (one that was open is sealed and whole), and after
// the disk heals the next pass succeeds.
func TestFailedCleaningPassLeavesVictimsIntact(t *testing.T) {
	for _, preexisting := range []bool{false, true} {
		t.Run(fmt.Sprintf("survivor-open=%v", preexisting), func(t *testing.T) {
			// 1 KiB values and segments of 600 of them: a victim half live
			// moves 300 KiB, more than the survivor's 256 KiB write buffer,
			// so the re-encoded blocks reach the file — and the fault —
			// mid-pass.
			const perSeg, valLen = 600, 1 << 10
			inj := faultfs.NewInjector(faultfs.OS)
			s := openTest(t, Options{WriteBufferBytes: 64 << 20, ReadBatchRatio: 0, MaxSpaceAmplification: 1.2, FS: inj})
			w := window.Window{Start: 0, End: gap}
			oracle := make(map[id][]string)
			fill := func(seg int) {
				t.Helper()
				for i := 0; i < perSeg; i++ {
					ident := id{key: fmt.Sprintf("k%d-%04d", seg, i), w: w}
					v := fmt.Sprintf("%0*d", valLen, seg*perSeg+i)
					if err := s.Append([]byte(ident.key), []byte(v), w, int64(i)); err != nil {
						t.Fatal(err)
					}
					oracle[ident] = []string{v}
				}
				sealHead(t, s)
			}
			halve := func(seg int) {
				t.Helper()
				for i := 0; i < perSeg; i += 2 {
					ident := id{key: fmt.Sprintf("k%d-%04d", seg, i), w: w}
					if got := mustGet(t, s, ident.key, w); len(got) != 1 {
						t.Fatalf("%v: %d values", ident, len(got))
					}
					delete(oracle, ident)
				}
			}
			segments := 2
			if preexisting {
				// A first, healthy pass leaves a small open survivor.
				fill(0)
				for i := 1; i < perSeg; i++ {
					ident := id{key: fmt.Sprintf("k0-%04d", i), w: w}
					mustGet(t, s, ident.key, w)
					delete(oracle, ident)
				}
				cleanNow(t, s)
				segments = 3
			}
			fill(1)
			fill(2)
			halve(1)
			halve(2)
			s.ioMu.Lock()
			surv, survName := s.segs.Survivor(), segmentName(s.segs.NextID())
			if surv != nil {
				survName = segmentName(surv.ID)
			}
			s.ioMu.Unlock()
			if (surv != nil) != preexisting || s.SegmentStats().LiveSegments != segments {
				t.Fatalf("survivor %v, %d segments before the failing pass", surv, s.SegmentStats().LiveSegments)
			}
			passes := s.SegmentStats().Compactions

			inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: survName, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
			s.ioMu.Lock()
			err := s.cleanLocked()
			s.ioMu.Unlock()
			if !errors.Is(err, faultfs.ErrDiskIO) || !inj.Fired() {
				t.Fatalf("the pass: err=%v fired=%v, want the injected disk error", err, inj.Fired())
			}
			s.ioMu.Lock()
			open := s.segs.Survivor()
			s.ioMu.Unlock()
			_, statErr := os.Stat(filepath.Join(s.dir.Root(), survName))
			switch {
			case s.SegmentStats().Compactions != passes || open != nil || s.SegmentStats().LiveSegments != segments:
				t.Fatalf("after the failed pass: %d passes, open survivor %v, %d segments; want %d, none, %d", s.SegmentStats().Compactions, open, s.SegmentStats().LiveSegments, passes, segments)
			case !preexisting && !os.IsNotExist(statErr):
				t.Fatalf("the survivor the pass opened is still on disk (%v)", statErr)
			case preexisting && !surv.Sealed:
				t.Fatalf("the survivor the pass found open was not sealed")
			}
			inj.Reset()
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			readAll(t, "after the failed pass", s, oracle)

			cleanNow(t, s)
			if s.SegmentStats().Compactions != passes+1 {
				t.Fatalf("%d passes after the disk healed, want %d", s.SegmentStats().Compactions, passes+1)
			}
			readAll(t, "after the next pass", s, oracle)
		})
	}
}

// segmentRun is what TestSessionRunCleansLittle measures of one run.
type segmentRun struct {
	flushed, cleaned  int64 // bytes flushes wrote and cleaning re-appended
	created, maxAlive int64 // segments
	peakLive          int64 // live data bytes at their highest
}

// runLongAndShortSessions is the session benchmark's regime in miniature,
// hot bidders included: one session opens a tick, in order, and fires gap
// ticks after its last tuple; every sixteenth gets another tuple every
// 300 ticks, four times over, and so outlives its flush-mates fivefold.
// Live state is about three write buffers.
func runLongAndShortSessions(t *testing.T) segmentRun {
	t.Helper()
	const (
		n       = 20_000
		sessGap = 400
		every   = 300 // a long session's next tuple comes this long after its last
		extra   = 4   // and it gets this many of them
	)
	s := openTest(t, Options{
		WriteBufferBytes: diffBuffer,
		ReadBatchRatio:   0.02,
		Predictor:        window.SessionPredictor{Gap: sessGap},
	})
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%06d", i)) }
	win := func(i int) window.Window { return window.Window{Start: int64(i), End: int64(i) + sessGap} }
	long := func(i int) bool { return i%16 == 5 }
	var out segmentRun
	for tick := 0; tick < n+sessGap+extra*every; tick++ {
		if i := tick - sessGap; i >= 0 && i < n && !long(i) {
			if got, err := s.Get(key(i), win(i)); err != nil || len(got) != 1 {
				t.Fatalf("session %d fired %d values, err %v", i, len(got), err)
			}
		}
		if i := tick - sessGap - extra*every; i >= 0 && i < n && long(i) {
			if got, err := s.Get(key(i), win(i)); err != nil || len(got) != 1+extra {
				t.Fatalf("long session %d fired %d values, err %v", i, len(got), err)
			}
		}
		for k := 0; k <= extra; k++ {
			if i := tick - k*every; i >= 0 && i < n && (k == 0 || long(i)) {
				if err := s.Append(key(i), []byte("bid-0001"), win(i), int64(tick)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.ioMu.Lock()
		segs := s.segs.List()
		var live int64
		for _, sg := range segs {
			live += sg.Live
		}
		out.created = int64(s.segs.NextID())
		s.ioMu.Unlock()
		out.maxAlive, out.peakLive = max(out.maxAlive, int64(len(segs))), max(out.peakLive, live)
	}
	if live := s.LiveStates(); live != 0 {
		t.Fatalf("%d sessions left after every trigger", live)
	}
	out.flushed, out.cleaned = s.FlushBytes(), s.SegmentStats().CompactionBytes
	return out
}

// TestSessionRunCleansLittle is the unit-level form of the benchmark claim:
// on a session-shaped run most segments empty by themselves and the long
// sessions they leave behind are collected by cleaning, which re-appends
// at most half of what the flushes wrote — the single log's compaction
// rewrote more than all of it — while the instance never holds more than
// MSA·live/eviction + 2 segments: the bound that makes a segmented log's
// file count a function of its live state. Both counts repeat.
func TestSessionRunCleansLittle(t *testing.T) {
	first := runLongAndShortSessions(t)
	t.Logf("%+v", first)
	if first.cleaned == 0 || 2*first.cleaned > first.flushed {
		t.Errorf("cleaning re-appended %d bytes, flushes wrote %d: want some, and at most half", first.cleaned, first.flushed)
	}
	// An eviction's segment is a quarter of the buffer's identities; its
	// log is what their entries take.
	const batch = 8 + 12 // "bid-0001", its length and count, the key and window deltas
	eviction := int64(diffBuffer / (8 + 24) / evictDivisor * batch)
	if bound := int64(1.5*float64(first.peakLive)/float64(eviction)) + 2; first.maxAlive > bound {
		t.Errorf("%d segments alive at once, %d live bytes at most, %d a segment: over MSA·live/eviction + 2 = %d", first.maxAlive, first.peakLive, eviction, bound)
	}
	if again := runLongAndShortSessions(t); again != first {
		t.Errorf("second run %+v, first %+v: the counts do not repeat", again, first)
	}
}

// TestFailedPassBlocksGetNoOrdinal: blocks a failed cleaning pass appended
// to the open survivor it found lie past the survivor's entries — they
// move no ordinal and get no bit. A cut of that survivor restores it
// exactly — entries, live bytes, file and every reference — and a
// cleaning pass of the restored store then takes it, strays and all,
// without reading them.
func TestFailedPassBlocksGetNoOrdinal(t *testing.T) {
	const perSeg, valLen = 600, 1 << 10
	inj := faultfs.NewInjector(faultfs.OS)
	opts := Options{WriteBufferBytes: 64 << 20, ReadBatchRatio: 0, MaxSpaceAmplification: 1.2}
	o := opts
	o.FS = inj
	s := openTest(t, o)
	w := window.Window{Start: 0, End: gap}
	oracle := make(map[id][]string)
	key := func(seg, i int) string { return fmt.Sprintf("k%d-%04d", seg, i) }
	fill := func(seg int) {
		t.Helper()
		for i := 0; i < perSeg; i++ {
			v := fmt.Sprintf("%0*d", valLen, seg*perSeg+i)
			if err := s.Append([]byte(key(seg, i)), []byte(v), w, int64(i)); err != nil {
				t.Fatal(err)
			}
			oracle[id{key(seg, i), w}] = []string{v}
		}
		sealHead(t, s)
	}
	consume := func(seg, step int) {
		t.Helper()
		for i := 0; i < perSeg; i += step {
			mustGet(t, s, key(seg, i), w)
			delete(oracle, id{key(seg, i), w})
		}
	}
	// A first pass leaves an open survivor holding k0-0599.
	fill(0)
	for i := 0; i < perSeg-1; i++ {
		mustGet(t, s, key(0, i), w)
		delete(oracle, id{key(0, i), w})
	}
	cleanNow(t, s)
	fill(1)
	fill(2)
	consume(1, 2)
	consume(2, 2)
	s.ioMu.Lock()
	surv := s.segs.Survivor()
	if surv == nil {
		s.ioMu.Unlock()
		t.Fatal("no open survivor before the failing pass")
	}
	entries, size := surv.Entries, surv.Log.Size()
	s.ioMu.Unlock()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: segmentName(surv.ID), Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
	s.ioMu.Lock()
	err := s.cleanLocked()
	s.ioMu.Unlock()
	if !errors.Is(err, faultfs.ErrDiskIO) {
		t.Fatalf("the pass: %v, want the injected disk error", err)
	}
	inj.Reset()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.ioMu.Lock()
	onDisk := len(segmentEntries(t, surv))
	s.ioMu.Unlock()
	if !surv.Sealed || surv.Entries != entries || surv.Log.Size() <= size || onDisk <= int(entries) {
		t.Fatalf("after the failed pass the survivor is sealed=%v with %d entries (were %d), %d on disk, %d bytes (were %d); want sealed, the entries unmoved and blocks past them",
			surv.Sealed, surv.Entries, entries, onDisk, surv.Log.Size(), size)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := s.checkpointTo(dir, nil, ""); err != nil {
		t.Fatal(err)
	}
	src, err := ckpttest.Source(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Section(ckpt.KindLive)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := ckpt.DecodeLiveness(b)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(segs, func(sl ckpt.SegLive) bool { return sl.ID == surv.ID })
	if i < 0 || segs[i].Entries != entries || len(segs[i].Bits) != int(entries+7)/8 {
		t.Fatalf("the cut's liveness section has %+v for the survivor; want its %d entries and no bit past them", segs, entries)
	}

	dst := openTest(t, opts)
	if err := dst.restoreFrom(dir); err != nil {
		t.Fatal(err)
	}
	readAll(t, "restored", dst, oracle)
	type segView struct {
		entries   uint32
		live, len int64
		sealed    bool
	}
	view := func(s *Store) (map[uint32]segView, map[id][]ref) {
		s.ioMu.Lock()
		defer s.ioMu.Unlock()
		segs := make(map[uint32]segView)
		for _, sg := range s.segs.List() {
			segs[sg.ID] = segView{sg.Entries, sg.Live, sg.Log.Size(), sg.Sealed}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		refs := make(map[id][]ref)
		for ident, e := range s.table {
			refs[ident] = slices.Clone(e.refs)
			slices.SortFunc(refs[ident], func(a, b ref) int { return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.ord, b.ord)) })
		}
		return segs, refs
	}
	wantSegs, wantRefs := view(s)
	gotSegs, gotRefs := view(dst)
	if !maps.Equal(gotSegs, wantSegs) || !maps.EqualFunc(gotRefs, wantRefs, slices.Equal[[]ref]) {
		t.Fatalf("restored segments %+v, the store's %+v; or the references differ", gotSegs, wantSegs)
	}

	cleanNow(t, dst)
	dst.ioMu.Lock()
	gone := dst.segs.Get(surv.ID) == nil
	dst.ioMu.Unlock()
	if !gone || dst.SegmentStats().Compactions != 1 {
		t.Fatalf("after a pass of the restored store: survivor gone=%v, %d passes; want it cleaned", gone, dst.SegmentStats().Compactions)
	}
	readAll(t, "restored and cleaned", dst, oracle)
	checkTable(t, "restored and cleaned", dst)
}

// TestCutChainCopiesOnlyOpenTails cuts a spilling AUR store five times
// through a delta chain, several evictions and some consumes apart. Each
// cut seals the open segments and copies exactly its CUT sections' bytes,
// the Stat stream and the liveness section (the files section, describing
// the cut, is in neither count); every segment it holds is whole and a
// hard link — of the parent's file when the parent holds it, else of the
// live one — counted in LinkedBytes. The last cut restores to the oracle.
func TestCutChainCopiesOnlyOpenTails(t *testing.T) {
	opts := Options{WriteBufferBytes: diffBuffer, ReadBatchRatio: 0, MaxSpaceAmplification: 1.2}
	s := openTest(t, opts)
	oracle := make(map[id][]string)
	next := 0
	var parent *ckpt.Meta
	var parentDir string
	for c := 0; c < 5; c++ {
		for target := s.SegmentStats().LiveSegments + 3; s.SegmentStats().LiveSegments < target; next++ {
			ident := id{key: fmt.Sprintf("s%05d", next), w: window.Window{Start: int64(next), End: int64(next) + gap}}
			v := fmt.Sprintf("v%05d", next)
			if err := s.Append([]byte(ident.key), []byte(v), ident.w, int64(next)); err != nil {
				t.Fatal(err)
			}
			oracle[ident] = append(oracle[ident], v)
			if next%4 == 1 {
				old := id{key: fmt.Sprintf("s%05d", next/2), w: window.Window{Start: int64(next / 2), End: int64(next/2) + gap}}
				mustGet(t, s, old.key, old.w)
				delete(oracle, old)
			}
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("c%d", c))
		res, err := s.checkpointTo(dir, parent, parentDir)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := ckpttest.Meta(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.ioMu.Lock()
		live := make(map[string]*segment)
		for _, sg := range s.segs.List() {
			live[segmentName(sg.ID)] = sg
		}
		s.ioMu.Unlock()
		var linked int64
		for _, f := range meta.Files {
			sg := live[f.Logical]
			if sg == nil || !sg.Sealed || sg.Log.Size() != f.Len {
				t.Fatalf("cut %d holds %d bytes of %s, the store %+v: want it whole and sealed", c, f.Len, f.Logical, sg)
			}
			linked += f.Len
			from := sg.Log.Path()
			if p := parent.File(f.Logical); p != nil && *p == f {
				from = filepath.Join(parentDir, ckpt.FileName(0, f.Logical))
			}
			same(t, filepath.Join(dir, ckpt.FileName(0, f.Logical)), from)
		}
		sections, err := ckpttest.SectionBytes(dir, ckpt.KindLive, ckpt.KindDump)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("cut %d: copied %d, linked %d, %d segments", c, res.CopiedBytes, res.LinkedBytes, len(live))
		if res.CopiedBytes != sections || res.LinkedBytes != linked || linked == 0 {
			t.Fatalf("cut %d copied %d and linked %d bytes; want %d copied (the Stat and liveness sections) and %d linked",
				c, res.CopiedBytes, res.LinkedBytes, sections, linked)
		}
		parent, parentDir = meta, dir
	}
	dst := openTest(t, opts)
	if err := dst.restoreFrom(parentDir); err != nil {
		t.Fatal(err)
	}
	readAll(t, "restored from the chain's last cut", dst, oracle)
}

// same fails the test unless the files at a and b are one inode.
func same(t *testing.T, a, b string) {
	t.Helper()
	fa, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(fa, fb) {
		t.Fatalf("%s is not a hard link of %s", a, b)
	}
}
