// Package aur implements FlowKV's Append and Unaligned Read store (paper
// §4.2), used for holistic window operations whose windows trigger at
// per-key times (session, count, and custom windows).
//
// Layout. The in-memory write buffer hashes tuples by (key, initial
// window boundary). A flush appends its value batches, in ascending
// estimated trigger time, to a segment log as blocks that carry each
// batch's identity — key and window — beside its values (block.go gives
// the layout), keeping per-window location metadata on disk rather than in
// memory. The log is a set of such segments (see "The segmented log").
//
// What gets spilled. An append never reads, so the only access that needs
// a window's state in memory is its trigger. A full write buffer therefore
// evicts only the quarter of its identities whose estimated trigger time
// is latest (identities without an estimate first of all): the sessions
// about to fire stay, are consumed from memory, and are never written.
// Flush, Sync and CheckpointDelta drain the buffer whole through the same
// flush.
//
// Predictive batch read. The in-memory Stat table tracks each live
// window's estimated trigger time (ETT), computed by a window-semantics
// predictor from the statically-known window function and the maximum
// tuple timestamp seen (for session windows: maxTS + gap, a guaranteed
// lower bound on the trigger). When a Get misses the prefetch buffer, the
// store selects, from the Stat table, the N flushed windows closest to
// their ETT (N = read-batch ratio × live windows) and scans the blocks of
// the segments holding them once, taking their values as it finds them:
// the scan that locates a batch is the read that loads it. Subsequent
// triggers hit in memory; the
// paper observes ≈0.93 hit ratio at ratio 0.02, i.e. ≈1.08× read
// amplification (Equation 1). A tuple arriving for a prefetched window
// proves the ETT wrong and evicts that window's prefetched state.
//
// The segmented log. Get is a fetch-&-remove, so window semantics say when
// a flushed batch dies, and an eviction's batches — chosen by trigger time
// — die at about the same time. Each full-buffer eviction is therefore
// written as a segment of a logfile.Segments (aur-NNNNNN.log) whose live
// count is its live entries' bytes, unlinked without a byte copied once
// that reaches zero. This replaces the paper's integrated compaction,
// which rewrote the whole log off the batch read's index scan: state that
// dies in age order is never copied, and a miss scans only the segments
// that hold what it selected. Memory holds, per flushed batch, its segment,
// its ordinal among the segment's entries and its bytes — not its offset:
// a batch is live exactly when an entry points at it, as an RMW aggregate
// is, so consuming an identity records nothing but dropping its entry.
//
// The table. Everything memory holds of an identity is one entry of one
// map: its Stat row, its buffered values, its batch references and its
// prefetched values (see entry).
//
// # Concurrency
//
// A Store instance is safe for concurrent use. Two locks split the state:
//
//   - mu guards the table and the buffer totals. Appends, and
//     Get/Read/Drop of state that lives only in the buffer, take mu
//     alone, so ingestion never waits for disk.
//   - ioMu serializes everything involving the segments' logs: flushes,
//     batch-read scans, cleaning, drops, checkpoints. mu is never held
//     across I/O; a flush detaches the buffer under mu, writes with only
//     ioMu held, and installs the batch references under mu again.
//
// The lock order is ioMu before mu; mu is never held while acquiring
// ioMu. The segment table, the segments' live counts and the entries'
// batch references change only with both held, so either suffices to read
// them. Operations on an identity with on-disk state, or one mid-flight in
// a flush, divert to the slow path (which waits on ioMu) so a
// fetch-&-remove can never miss values between buffer and log.
package aur

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("aur: store closed")

// DisableFlushReattach, when set, restores the historical behaviour of
// dropping the unwritten remainder of a detached batch when a flush
// fails. It exists only so the error-injection battery can demonstrate
// that the re-attach is load-bearing; production code must never set it.
var DisableFlushReattach bool

// Options configures an AUR store instance.
type Options struct {
	// Dir is the directory holding the instance's log segments.
	Dir string
	// WriteBufferBytes caps the in-memory write buffer; an append that
	// exceeds it evicts the quarter of the buffered identities that will
	// trigger last (see flushLocked). Default 32 MiB.
	WriteBufferBytes int64
	// ReadBatchRatio sets the fraction of live (key, window) states
	// prefetched per predictive batch read, at least minBatchWindows. 0
	// disables prediction (every read with on-disk state scans its
	// segments for that state alone). The paper's default is 0.02.
	ReadBatchRatio float64
	// MaxSpaceAmplification (MSA) triggers segment cleaning when
	// total/(total-dead) segment-log bytes exceed it. Default 1.5.
	MaxSpaceAmplification float64
	// Predictor estimates window trigger times. nil disables prediction
	// (the degraded mode FlowKV uses for count and custom windows).
	Predictor window.Predictor
	// FS is the filesystem seam; nil means the real OS filesystem.
	// Fault-injection tests substitute a faultfs.Injector.
	FS faultfs.FS
	// Breakdown receives per-operation CPU time and I/O accounting.
	Breakdown *metrics.Breakdown
	// Policy bounds and observes the store's log I/O (deadline sentinel
	// + latency monitor); nil is a passthrough. Shared by reference: the
	// composite store installs one policy across its instances.
	Policy *logfile.Policy

	// minBatch overrides minBatchWindows; in-package tests set it.
	minBatch int
}

// minBatchWindows floors the per-scan prefetch count when the ratio yields
// fewer: small live sets would otherwise trigger a segment scan every few
// reads. At the paper's scale ratio × live windows is in the thousands and
// the floor is never reached.
const minBatchWindows = 64

// evictDivisor is the share of the buffered identities a full buffer
// evicts: the quarter with the latest estimated trigger time. On the
// session benchmark a half writes 28.9 B an event, a quarter 26.7 B and an
// eighth 25.6 B with twice the flushes (draining the buffer whole: 35.1 B)
// — the same trade the RMW store's evictDivisor settles.
const evictDivisor = 4

func (o *Options) fill() {
	if o.WriteBufferBytes <= 0 {
		o.WriteBufferBytes = 32 << 20
	}
	if o.MaxSpaceAmplification <= 0 {
		o.MaxSpaceAmplification = 1.5
	}
	if o.minBatch <= 0 {
		o.minBatch = minBatchWindows
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
}

// id identifies one unit of state: a key plus the *initial* window
// boundary, fixed at window creation even if the session later grows
// (§4.2 "FlowKV leverages the initial window boundary").
type id struct {
	key string
	w   window.Window
}

// entry is an identity's row in the table. It lives from the identity's
// first Append to the Get or Drop that consumes it, and until then holds
// buffered values, batch references or a flush in flight.
type entry struct {
	// The Stat row (step ②): the latest tuple timestamp and the ETT the
	// predictor derives from it.
	maxTS  int64
	ett    int64
	hasETT bool
	// flushing says a flush has detached the buffered values and not yet
	// installed them: reads take the slow path, which waits for it.
	flushing bool
	values   [][]byte // buffered, in append order
	bytes    int64    // what values charge the write buffer
	// refs points at the identity's live batches, one each.
	refs []ref
	// prefetched holds the values a batch read loaded, nil when none.
	prefetched [][]byte
}

// ref locates one flushed batch: its segment, its ordinal among the
// segment's entries — its bit in a checkpoint — and its share of the
// segment's bytes, its entry's size, the block's header and frame too for
// a block's first entry. A batch is live exactly when an entry holds a ref
// to it.
type ref struct {
	seg, ord, share uint32
}

// refAt returns the index of e's reference to the batch of ordinal ord in
// segment seg, -1 if e holds none.
func (e *entry) refAt(seg, ord uint32) int {
	return slices.IndexFunc(e.refs, func(r ref) bool { return r.seg == seg && r.ord == ord })
}

// segment is one log of the segment set, in logfile.Segments' lifecycle.
type segment = logfile.Segment

// segmentPrefix names the segment files: aur-NNNNNN.log.
const segmentPrefix = "aur"

// Store is a single AUR store instance, safe for concurrent use.
type Store struct {
	opts Options
	dir  *logfile.Dir
	bd   *metrics.Breakdown

	// mu guards the in-memory state below.
	mu            sync.Mutex
	table         map[id]*entry
	bufBytes      int64 // the entries' buffered bytes
	prefetchBytes int64 // the entries' prefetched bytes

	// ioMu serializes log I/O and the state only disk paths touch.
	// Never acquired while holding mu.
	ioMu sync.Mutex
	// segs is the log: every segment, the flush head and the survivor.
	segs *logfile.Segments
	seq  uint64 // the last flush's sequence number (see block.go)
	// items is the slice a flush detaches its batch into, kept from one
	// flush to the next (they run one at a time, under ioMu).
	items []flushItem

	// Evaluation metrics.
	ratio      metrics.Ratio
	evictions  metrics.Counter
	indexScans metrics.Counter
	// What flushes wrote, in bytes and batches; where consumed identities
	// were found.
	flushedBytes   metrics.Counter
	flushedBatches metrics.Counter
	bufferHits     metrics.Counter // consumed wholly from the write buffer
	diskHits       metrics.Counter // consumed with state on disk
}

// Open creates an AUR store instance rooted at opts.Dir. Segment files are
// created as flushes need them; a store that never spills owns none. A
// store starts empty: segment files an earlier process left in the
// directory are unlinked (logfile.NewSegments).
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	s := &Store{opts: opts, dir: dir, bd: opts.Breakdown, table: make(map[id]*entry)}
	if s.segs, err = logfile.NewSegments(dir, &s.ioMu, &s.mu, segmentPrefix, opts.WriteBufferBytes, opts.MaxSpaceAmplification); err != nil {
		return nil, fmt.Errorf("aur: open: %w", err)
	}
	return s, nil
}

// Append adds the KV tuple with its window and timestamp (paper API:
// Append(K, V, W, T)). The timestamp feeds the window's ETT. Key and
// value are copied.
func (s *Store) Append(key, value []byte, w window.Window, ts int64) error {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpWrite)
	}
	err := s.append(key, value, w, ts)
	if stop != nil {
		stop()
	}
	return err
}

func (s *Store) append(key, value []byte, w window.Window, ts int64) error {
	ident := id{key: string(key), w: w}
	vc := make([]byte, len(value))
	copy(vc, value)

	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	e := s.table[ident]
	if e == nil {
		e = &entry{maxTS: ts}
		s.table[ident] = e
	} else {
		e.maxTS = max(e.maxTS, ts)
	}
	// A new tuple for a prefetched window proves its ETT estimate wrong:
	// evict the stale prefetched state (§4.2); it will be re-read when
	// the window actually triggers.
	s.evictPrefetchLocked(e)
	e.values = append(e.values, vc)
	sz := int64(len(value) + 24)
	e.bytes += sz
	s.bufBytes += sz
	// Update the Stat row (step ②).
	if s.opts.Predictor != nil {
		if ett, ok := s.opts.Predictor.ETT(w, e.maxTS); ok {
			e.ett, e.hasETT = ett, true
		}
	}
	need := s.bufBytes > s.opts.WriteBufferBytes
	s.mu.Unlock()

	if !need {
		return nil
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(false, nil); err != nil {
		return err
	}
	return s.cleanLocked()
}

// flushItem is one buffered batch on its way to disk: its entry, and the
// values and Stat estimate detached from it under mu, so the flush reads
// nothing of an entry an Append may be updating.
type flushItem struct {
	ident  id
	e      *entry
	values [][]byte
	bytes  int64
	ett    int64
	hasETT bool
	at     ref // where it was written
}

// statRow is one row of the Stat table as a checkpoint ships it.
type statRow struct {
	ident id
	maxTS int64
}

// cutState is what a checkpoint's drain collects of the table: the Stat
// rows, in the section that detaches the buffer, and a liveness bitmap per
// segment, in the section that installs what it wrote.
type cutState struct {
	rows []statRow
	live ckpt.Live
}

// byTrigger orders a flush's batches by ascending ETT, identities without
// one last, ties by identity so the layout is a function of the buffer's
// content rather than of map order. The windows one predictive batch
// read selects — the soonest to trigger — then sit next to each other at
// the front of every flush's blocks, and neighbours differ little in start
// and width, which the blocks' deltas turn into bytes saved.
//
// The same order, read from its far end, picks an eviction's victims
// (detachLocked): it is total, so victims and byte counts repeat from run
// to run.
func byTrigger(a, b flushItem) int {
	switch {
	case a.hasETT != b.hasETT:
		if a.hasETT {
			return -1
		}
		return 1
	case a.hasETT && a.ett != b.ett:
		if a.ett < b.ett {
			return -1
		}
		return 1
	}
	return compareIDs(a.ident, b.ident)
}

func compareIDs(a, b id) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.w.Before(b.w):
		return -1
	case b.w.Before(a.w):
		return 1
	}
	return 0
}

// triggersLater is byTrigger read from its far end: the order an eviction
// selects its victims by.
func triggersLater(a, b flushItem) bool { return byTrigger(a, b) > 0 }

// detachLocked takes out of the buffer the batches a flush writes, their
// entries marked in flight, and returns them; none when there is nothing to
// do: an empty buffer, or an eviction that queued on ioMu behind another
// and finds the buffer no longer full. Caller holds ioMu and mu. A drain
// takes everything. An eviction takes the quarter of the buffered
// identities that come last in byTrigger order, found by selection rather
// than by sorting the buffer — unless what that leaves is still over the
// cap (a few large batches among many small ones), and then it too takes
// everything, so a flush always brings the buffer back under
// WriteBufferBytes. With cut non-nil, the checkpoint's, the same pass over
// the table appends every identity's Stat row to cut.rows.
//
// Why the estimated trigger time and not the window's end, the order the
// RMW store evicts by: an RMW update reads its aggregate back, an AUR
// append reads nothing, so the trigger is the only access that wants the
// state in memory — and the session just appended to (latest maxTS + gap)
// is the one furthest from it. Ordered by the initial window's end the
// session benchmark writes 39.0 B an event, more than draining the buffer
// whole (35.1 B); ordered by ETT, 26.7 B.
func (s *Store) detachLocked(all bool, cut *cutState) []flushItem {
	if cut == nil && (s.bufBytes == 0 || !all && s.bufBytes <= s.opts.WriteBufferBytes) {
		return nil
	}
	items := s.items[:0]
	for ident, e := range s.table {
		if cut != nil {
			cut.rows = append(cut.rows, statRow{ident, e.maxTS})
		}
		if len(e.values) > 0 {
			items = append(items, flushItem{ident: ident, e: e, bytes: e.bytes, ett: e.ett, hasETT: e.hasETT})
		}
	}
	s.items = items
	if !all {
		k := (len(items) + evictDivisor - 1) / evictDivisor
		window.SelectLast(items, k, triggersLater)
		var bytes int64
		for _, it := range items[:k] {
			bytes += it.bytes
		}
		if s.bufBytes-bytes <= s.opts.WriteBufferBytes {
			items = items[:k]
		}
	}
	for i := range items {
		it := &items[i]
		it.values, it.e.values, it.e.bytes, it.e.flushing = it.e.values, nil, 0, true
		s.bufBytes -= it.bytes
	}
	return items
}

// flushLocked spills buffered batches (step ③): all of them for a drain
// (Flush, Sync, CheckpointDelta — the drain is the checkpoint cut), the
// quarter that will trigger last for the eviction an Append starts on
// finding the buffer full (detachLocked). One block entry per (key,
// window) batch, in byTrigger order. Caller holds ioMu. The batch is
// detached under mu and written with only ioMu held, so ingestion
// proceeds; its entries are marked in flight, diverting their reads to
// the slow path until their batch references are installed. A batch gets
// its ordinal once the head's log accepts its block. With cut non-nil, the
// checkpoint's, detachLocked collects the Stat rows and the section that
// ends the drain the liveness bitmaps (markLiveLocked).
//
// A full buffer's flush seals the segment it wrote, so in steady state
// every segment holds one eviction and its batches share a lifetime. A
// drain of a buffer that was not full leaves the head open for the next
// flush rather than sealing a tiny file.
func (s *Store) flushLocked(all bool, cut *cutState) error {
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	full := s.bufBytes > s.opts.WriteBufferBytes
	items := s.detachLocked(all, cut)
	if len(items) == 0 {
		if cut != nil {
			s.markLiveLocked(cut.live)
		}
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	defer clear(s.items) // the next flush reuses the slice, not the values
	// A head that cannot be created fails the flush like a failed first
	// write: everything detached goes back.
	head, werr := s.segs.OpenHead()
	s.seq++
	slices.SortFunc(items, byTrigger)

	// items[:installed] are in blocks the head's log accepted.
	var installed int
	var bytes int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		_, n, err := head.Log.Append(block)
		if err != nil {
			return err
		}
		items[installed].at.share += uint32(n - body)
		for i := installed; i < installed+entries; i++ {
			items[i].at.seg, items[i].at.ord = head.ID, head.Entries
			head.Entries++
		}
		bytes += int64(n)
		installed += entries
		return nil
	}}
	for i := 0; werr == nil && i < len(items); i++ {
		it := &items[i]
		_, n, err := bw.Add(s.seq, it.ident.key, it.ident.w, it.values)
		it.at.share, werr = uint32(n), err
	}
	if werr == nil {
		werr = bw.Flush()
	}
	s.flushedBytes.Add(bytes)
	s.flushedBatches.Add(int64(installed))

	s.mu.Lock()
	for i := range items {
		it := &items[i]
		e := it.e
		e.flushing = false
		switch {
		case i < installed:
			e.refs = append(e.refs, it.at)
			head.Live += int64(it.at.share)
			// A prefetch entry covers every flushed span of its id at the
			// instant it was installed; the span just written is not among
			// them, so the entry (installed by a batch read that targeted a
			// different id while this one sat in the buffer) is now stale
			// and must go, exactly as an append evicts it.
			s.evictPrefetchLocked(e)
		case !DisableFlushReattach:
			// Flush failure is atomic: batches the logs did not fully accept
			// go back into the live buffer, prepended so value order per id
			// stays chronological relative to appends that raced in since
			// the detach. No acked Append is lost.
			e.values = append(it.values, e.values...)
			e.bytes += it.bytes
			s.bufBytes += it.bytes
			s.evictPrefetchLocked(e)
		}
	}
	if cut != nil && werr == nil {
		s.markLiveLocked(cut.live)
	}
	s.mu.Unlock()
	if werr == nil {
		s.segs.Seal(head, full)
	}
	return werr
}

// markLiveLocked sets in live the bit of every batch an entry points at;
// caller holds ioMu and mu.
func (s *Store) markLiveLocked(live ckpt.Live) {
	for _, e := range s.table {
		for _, r := range e.refs {
			live.Set(s.segs, r.seg, r.ord)
		}
	}
}

// fastPath reports whether e can be served under mu alone: no on-disk
// state and no copy mid-flight in a flush. Caller holds mu.
func (e *entry) fastPath() bool { return len(e.refs) == 0 && !e.flushing }

// Get fetches and removes the values of (key, window) (paper API:
// Get(K, W)). Values are returned in append order. A nil slice means the
// state does not exist.
func (s *Store) Get(key []byte, w window.Window) ([][]byte, error) {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpRead)
	}
	vals, err := s.get(key, w)
	if stop != nil {
		stop()
	}
	return vals, err
}

func (s *Store) get(key []byte, w window.Window) ([][]byte, error) {
	ident := id{key: string(key), w: w}

	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if e := s.table[ident]; e == nil || e.fastPath() {
		bufVals, _ := s.removeLocked(ident, e)
		if bufVals != nil {
			s.bufferHits.Inc()
		}
		s.mu.Unlock()
		return bufVals, nil
	}
	s.mu.Unlock()

	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	// Any flush that was in flight has completed: state is buffer + disk.
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e := s.table[ident]
	if e == nil { // consumed meanwhile
		s.mu.Unlock()
		return nil, nil
	}
	diskVals, err := s.diskValuesLocked(ident, e)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	bufVals, emptied := s.removeLocked(ident, e)
	if diskVals != nil {
		s.diskHits.Inc()
	} else if bufVals != nil {
		s.bufferHits.Inc()
	}
	s.mu.Unlock()
	if emptied {
		_ = s.segs.Reap() // still tracked on failure; the next reap retries
	}

	if diskVals == nil && bufVals == nil {
		return nil, nil
	}
	return append(diskVals, bufVals...), nil
}

// Read returns the values of (key, window) without consuming them, in
// append order. Unlike Get, the state stays live (and stays in the
// prefetch buffer if a disk read was needed). This supports operators
// that probe state repeatedly before discarding it wholesale — e.g.
// interval joins (§8) — while preserving the AUR layout.
func (s *Store) Read(key []byte, w window.Window) ([][]byte, error) {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpRead)
	}
	vals, err := s.read(key, w)
	if stop != nil {
		stop()
	}
	return vals, err
}

func (s *Store) read(key []byte, w window.Window) ([][]byte, error) {
	ident := id{key: string(key), w: w}

	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if e := s.table[ident]; e == nil || e.fastPath() {
		var out [][]byte
		if e != nil {
			out = append(out, e.values...)
		}
		s.mu.Unlock()
		return out, nil
	}
	s.mu.Unlock()

	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e := s.table[ident]
	if e == nil { // consumed meanwhile
		s.mu.Unlock()
		return nil, nil
	}
	diskVals, err := s.diskValuesLocked(ident, e)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	bufVals := e.values
	s.mu.Unlock()

	if diskVals == nil && bufVals == nil {
		return nil, nil
	}
	out := make([][]byte, 0, len(diskVals)+len(bufVals))
	out = append(out, diskVals...)
	return append(out, bufVals...), nil
}

// diskValuesLocked returns the on-disk values of ident, whose entry is e,
// nil if it has none: from the prefetch buffer (step ④) or, on a miss, by
// a predictive batch read (steps ⑤–⑦). The values come back directly: a
// concurrent Append to this id while mu is released would evict its fresh
// prefetched values, so the entry cannot be re-read. Caller holds ioMu and
// mu, which a batch read releases and which is held again on return.
func (s *Store) diskValuesLocked(ident id, e *entry) ([][]byte, error) {
	if len(e.refs) == 0 {
		return nil, nil
	}
	if e.prefetched != nil {
		s.ratio.Hit()
		return e.prefetched, nil
	}
	s.ratio.Miss()
	s.mu.Unlock()
	defer s.mu.Lock()
	return s.batchReadLocked(ident, e)
}

// Peek returns the number of buffered, on-disk and prefetched bytes held
// for (key, window) without consuming them. Diagnostic/testing hook.
func (s *Store) Peek(key []byte, w window.Window) (buffered, onDisk int64, prefetched bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.table[id{key: string(key), w: w}]
	if e == nil {
		return 0, 0, false
	}
	for _, r := range e.refs {
		onDisk += int64(r.share)
	}
	return e.bytes, onDisk, e.prefetched != nil
}

// ForEachLive invokes fn for every live (unconsumed) unit of state — a
// (key, initial window) identity — with its values in append order and
// the maximum event timestamp observed for the identity. The enumeration
// is non-destructive: values stay live and the Stat table row is kept.
// Used by job rescaling to re-route committed state into a new worker
// set. Identities are visited in (key, window) order.
func (s *Store) ForEachLive(fn func(key []byte, w window.Window, values [][]byte, maxTS int64) error) error {
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	rows := make([]statRow, 0, len(s.table))
	for ident, e := range s.table {
		rows = append(rows, statRow{ident, e.maxTS})
	}
	s.mu.Unlock()
	slices.SortFunc(rows, func(a, b statRow) int { return compareIDs(a.ident, b.ident) })
	for _, r := range rows {
		vals, err := s.Read([]byte(r.ident.key), r.ident.w)
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			continue
		}
		if err := fn([]byte(r.ident.key), r.ident.w, vals, r.maxTS); err != nil {
			return err
		}
	}
	return nil
}

// ForEachIdentity calls fn for every live (key, initial window)
// identity, in no particular order, from the table alone: no segment is
// read. fn runs under the table's lock and must not call back into the
// store.
func (s *Store) ForEachIdentity(fn func(key string, w window.Window)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs.Closed() {
		return ErrClosed
	}
	for ident := range s.table {
		fn(ident.key, ident.w)
	}
	return nil
}

// Drop discards all state of (key, window) without reading it.
func (s *Store) Drop(key []byte, w window.Window) error {
	ident := id{key: string(key), w: w}

	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	if e := s.table[ident]; e == nil || e.fastPath() {
		s.removeLocked(ident, e)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	_, emptied := s.removeLocked(ident, s.table[ident])
	s.mu.Unlock()
	if emptied {
		_ = s.segs.Reap() // still tracked on failure; the next reap retries
	}
	return nil
}

// removeLocked consumes ident, whose entry is e (nil: nothing to do): the
// entry leaves the table and its buffered values are returned, its
// prefetched values dropped, and its flushed batches retired — dead, as
// nothing points at them any more — debiting the segments that hold them.
// emptied reports whether that emptied a sealed segment, which is then due
// a reap. Caller holds mu, and ioMu too unless e is on the fast path.
func (s *Store) removeLocked(ident id, e *entry) (values [][]byte, emptied bool) {
	if e == nil {
		return nil, false
	}
	delete(s.table, ident)
	s.bufBytes -= e.bytes
	s.dropPrefetchLocked(e)
	for _, r := range e.refs {
		sg := s.segs.Get(r.seg)
		sg.Live -= int64(r.share)
		emptied = emptied || sg.Sealed && sg.Live == 0
	}
	return e.values, emptied
}

// dropPrefetchLocked drops e's prefetched values, reporting whether it had
// any; caller holds mu.
func (s *Store) dropPrefetchLocked(e *entry) bool {
	if e.prefetched == nil {
		return false
	}
	for _, v := range e.prefetched {
		s.prefetchBytes -= int64(len(v))
	}
	e.prefetched = nil
	return true
}

// evictPrefetchLocked drops e's prefetched values as stale, counting the
// eviction; caller holds mu.
func (s *Store) evictPrefetchLocked(e *entry) {
	if s.dropPrefetchLocked(e) {
		s.evictions.Inc()
	}
}

// batchReadLocked performs one predictive batch read targeting ident,
// whose entry is te: select the target plus the N flushed windows nearest
// their ETT, then scan the blocks of the segments holding them, taking the
// selected batches' values as the scan finds them, into the prefetch
// buffer. Caller holds ioMu (not mu), so no selected entry can be
// consumed before the install.
//
// The target's values are returned directly rather than via its entry: a
// concurrent Append to the target between the prefetch install and the
// caller's next mu acquisition evicts them, so a caller that re-read the
// entry could find nothing and lose the on-disk values it is about to
// consume.
func (s *Store) batchReadLocked(target id, te *entry) ([][]byte, error) {
	// Selecting before scanning means a scan reads only the segments the
	// selection names, copies values for the selected batches alone, and
	// stops in each segment at the last of them.
	want := s.selectBatch(target, te)
	s.indexScans.Inc()
	type load struct {
		e    *entry
		seq  uint64
		vals [][]byte
	}
	var loads []load
	for _, sg := range s.segs.List() {
		picks := want[sg.ID]
		if len(picks) == 0 {
			continue
		}
		slices.SortFunc(picks, func(a, b pick) int { return cmp.Compare(a.ord, b.ord) })
		err := s.scanSegLocked(sg, func(ord uint32, be *logfile.BlockEntry) error {
			p := picks[0]
			if ord != p.ord {
				return nil
			}
			if string(be.Key) != p.ident.key || be.Window != p.ident.w {
				return &logfile.BlockError{Reason: fmt.Sprintf("entry %d holds %q %v, not %q %v", ord, be.Key, be.Window, p.ident.key, p.ident.w)}
			}
			vals := make([][]byte, len(be.Values))
			for i, v := range be.Values {
				vals[i] = slices.Clone(v)
			}
			loads = append(loads, load{p.e, be.Seq, vals})
			if picks = picks[1:]; len(picks) == 0 {
				return errScanDone
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Install in flush order — not scan order: a survivor segment holds
	// batches older than a sealed eviction's, and out of order among
	// themselves — keeping per-id value order chronological. A concurrent
	// Append may already have evicted prefetched values and buffered new
	// ones for an id; re-installing is harmless — Get merges prefetched
	// disk values with newer buffered ones. The target's values are also
	// collected into a caller-owned slice that no concurrent eviction can
	// take away.
	slices.SortStableFunc(loads, func(a, b load) int { return cmp.Compare(a.seq, b.seq) })
	var targetVals [][]byte
	s.mu.Lock()
	for _, l := range loads {
		for _, v := range l.vals {
			s.prefetchBytes += int64(len(v))
		}
		l.e.prefetched = append(l.e.prefetched, l.vals...)
		if l.e == te {
			targetVals = append(targetVals, l.vals...)
		}
	}
	s.mu.Unlock()
	return targetVals, nil
}

// cand is a prefetch candidate: a flushed identity, its entry and its ETT.
type cand struct {
	ident id
	e     *entry
	ett   int64
}

// sooner orders candidates by ETT, ties by identity, so a selection is a
// function of the store's state rather than of map iteration order.
func (a cand) sooner(b cand) bool {
	if a.ett != b.ett {
		return a.ett < b.ett
	}
	return compareIDs(a.ident, b.ident) < 0
}

// siftLatest restores, below position i, the max-heap order of h: every
// candidate no sooner than its children, the latest at h[0].
func siftLatest(h []cand, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[c].sooner(h[r]) {
			c = r
		}
		if !h[i].sooner(h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pick is one batch a predictive batch read loads: its ordinal in its
// segment, and its identity and entry.
type pick struct {
	ord   uint32
	ident id
	e     *entry
}

// selectBatch picks the identities one predictive batch read loads — the
// target plus the N flushed ids with the smallest ETT, N = ceil(ratio ×
// live states) so any positive ratio prefetches at least one upcoming
// window — and returns their batches by segment. Ids without an ETT cannot
// be predicted and are only loaded on demand; ids already prefetched are
// skipped. The candidates are exactly the ids with batches on disk — an
// entry holds references from its first installed flush until it is
// consumed — so the choice needs nothing from the scan. One pass over the
// table keeps the N soonest in a heap; once it is full, a row whose ETT is
// no sooner than the heap's latest costs one comparison. Caller holds
// ioMu.
func (s *Store) selectBatch(target id, te *entry) (want map[uint32][]pick) {
	var soonest []cand
	s.mu.Lock()
	n := int(math.Ceil(s.opts.ReadBatchRatio * float64(len(s.table))))
	if s.opts.ReadBatchRatio > 0 && n < s.opts.minBatch {
		n = s.opts.minBatch
	}
	if n > 0 {
		soonest = make([]cand, 0, min(n, len(s.table)))
		for ident, e := range s.table {
			c := cand{ident, e, e.ett}
			if !e.hasETT || len(e.refs) == 0 || len(soonest) == n && !c.sooner(soonest[0]) {
				continue
			}
			if e == te || e.prefetched != nil {
				continue
			}
			if len(soonest) < n {
				soonest = append(soonest, c)
				if len(soonest) == n {
					for i := n/2 - 1; i >= 0; i-- {
						siftLatest(soonest, i)
					}
				}
			} else {
				soonest[0] = c
				siftLatest(soonest, 0)
			}
		}
	}
	want = make(map[uint32][]pick)
	add := func(ident id, e *entry) {
		for _, r := range e.refs {
			want[r.seg] = append(want[r.seg], pick{r.ord, ident, e})
		}
	}
	add(target, te)
	for _, c := range soonest {
		add(c.ident, c.e)
	}
	s.mu.Unlock()
	return want
}

// errScanDone, returned by a scan callback, ends the scan without error.
var errScanDone = errors.New("aur: segment scan done")

// scanSegLocked reads sg's log once, calling fn for every entry of the
// blocks the store installed there — consumed ones included, the caller
// filters — with its ordinal, until they end or fn returns errScanDone.
// The entry and the slices it holds are valid only during the call. Blocks
// a failed cleaning pass appended lie past them and are never read; blocks
// ending short of them (a zeroed page looks like a torn tail) are a
// *binio.FrameError. Caller holds ioMu.
func (s *Store) scanSegLocked(sg *segment, fn func(ord uint32, e *logfile.BlockEntry) error) error {
	if s.bd != nil {
		defer s.bd.Start(metrics.OpRead)()
	}
	sc, err := sg.Log.Scanner(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	var ord uint32
	for off := int64(0); ord < sg.Entries && sc.Scan(); off = sc.Offset() {
		// The block's first entry counts its frame as well (block.go).
		frame := int(sc.Offset()-off) - len(sc.Record())
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			if ord == sg.Entries {
				return &logfile.BlockError{Reason: fmt.Sprintf("entries past the segment's %d", sg.Entries)}
			}
			e.Size, frame = e.Size+frame, 0
			ord++
			return fn(ord-1, e)
		})
		switch {
		case err == errScanDone:
			return sc.Err() // nil; accounts the bytes read
		case errors.As(err, new(*logfile.BlockError)):
			return fmt.Errorf("aur: %s: block at %d: %w", sg.Log.Path(), off, err)
		case err != nil:
			return err
		}
	}
	if err := sc.Err(); err != nil || ord == sg.Entries {
		return err
	}
	return fmt.Errorf("aur: %s: %w", sg.Log.Path(), &binio.FrameError{Reason: fmt.Sprintf("blocks end after %d of %d entries", ord, sg.Entries)})
}

// move is one batch a cleaning pass re-encoded into the survivor: its
// entry, where it was and where it went.
type move struct {
	e        *entry
	from, to ref
}

// cleanLocked, behind an evicting flush, reaps the segments that emptied
// by themselves and, when amplification — log bytes over live entry bytes
// — still exceeds MSA, runs one cleaning pass (§4.2's compaction, per
// segment; logfile.Segments.Clean); caller holds ioMu, under which the
// live set cannot change: consuming state requires ioMu and appends only
// touch the buffer. The pass scans each victim once and re-encodes the
// batches an entry points at into the survivor's blocks; nothing is
// installed until the survivor's log has accepted every block — the
// survivor's entry count, and with it every ordinal, included — so blocks
// a failed pass appended lie past its entries, never read.
func (s *Store) cleanLocked() error {
	var moved []move
	var surv *segment
	var appended int64
	var entries uint32 // the pass appended to surv
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, n, body int) error {
		_, size, err := surv.Log.Append(block)
		if err != nil {
			return err
		}
		ms := moved[len(moved)-n:]
		ms[0].to.share += uint32(size - body)
		for i := range ms {
			ms[i].to.seg, ms[i].to.ord = surv.ID, surv.Entries+entries
			entries++
		}
		appended += int64(size)
		return nil
	}}
	return s.segs.Clean(func(v *segment, live int64, sv *segment) error {
		surv = sv
		return s.copyLiveLocked(v, live, &bw, &moved)
	}, func(sv *segment) (int64, error) {
		surv = sv
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		sv.Entries += entries
		s.mu.Lock()
		for _, m := range moved {
			m.e.refs[m.e.refAt(m.from.seg, m.from.ord)] = m.to
			s.segs.Get(m.from.seg).Live -= int64(m.from.share)
			sv.Live += int64(m.to.share)
		}
		s.mu.Unlock()
		return appended, nil
	})
}

// copyLiveLocked scans victim v's blocks once and hands every batch an
// entry still points at to bw, under the sequence number it was first
// written with, recording the moves; caller holds ioMu. The scan stops
// once it has seen all of v's live bytes.
func (s *Store) copyLiveLocked(v *segment, left int64, bw *logfile.BlockWriter, moved *[]move) error {
	return s.scanSegLocked(v, func(ord uint32, be *logfile.BlockEntry) error {
		ident := id{key: string(be.Key), w: be.Window}
		s.mu.Lock()
		e := s.table[ident]
		s.mu.Unlock()
		if e == nil || e.refAt(v.ID, ord) < 0 {
			return nil
		}
		_, n, err := bw.Add(be.Seq, ident.key, be.Window, be.Values)
		if err != nil {
			return err
		}
		from := ref{seg: v.ID, ord: ord, share: uint32(be.Size)}
		*moved = append(*moved, move{e: e, from: from, to: ref{share: uint32(n)}})
		if left -= int64(from.share); left == 0 {
			return errScanDone
		}
		return nil
	})
}

// Flush spills all buffered data to disk (checkpoint support): a drain,
// where a full buffer's eviction spills a quarter.
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(true, nil); err != nil {
		return err
	}
	return s.segs.Flush()
}

// Sync flushes all buffered data and fsyncs every log holding bytes not
// yet durable, making every acknowledged Append durable (logfile.Segments.Sync: each fsync runs
// outside ioMu, so appends, batch reads and later flushes overlap it).
func (s *Store) Sync() error {
	return s.segs.Sync(func() error { return s.flushLocked(true, nil) })
}

// Poisoned returns the first poisoning error among the segments' logs, or
// nil when all are healthy.
func (s *Store) Poisoned() error { return s.segs.Poisoned() }

// Recover reopens every poisoned log from its durable offset, rewriting
// its retained unsynced tail, so the write path works again after the
// underlying fault has cleared.
func (s *Store) Recover() error { return s.segs.Recover() }

// Scrub verifies every segment's record frames against their checksums
// under the instance I/O lock, healing rot confined to an unsynced tail
// where the retained in-memory copy allows (see logfile.Log.Scrub). It
// returns the per-instance summary and the first unrepairable corruption.
func (s *Store) Scrub() (logfile.ScrubSummary, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if s.segs.Closed() {
		return logfile.ScrubSummary{}, ErrClosed
	}
	return logfile.ScrubAll(s.segs.Logs())
}

// SegmentStats returns the log's segment lifecycle accounting: cleaning
// passes and the bytes they re-appended, segments dropped and live.
func (s *Store) SegmentStats() logfile.SegmentStats { return s.segs.Stats() }

// HitRatio returns the prefetch buffer hit ratio (Figure 11b metric).
func (s *Store) HitRatio() float64 { return s.ratio.Value() }

// HitCount returns (hits, misses) of the prefetch buffer.
func (s *Store) HitCount() (int64, int64) { return s.ratio.Hits(), s.ratio.Misses() }

// ConsumedCount returns how many identities a Get found wholly in the
// write buffer and how many had state on disk: evicting by trigger time
// exists to move sessions from the second count to the first.
func (s *Store) ConsumedCount() (buffer, disk int64) {
	return s.bufferHits.Load(), s.diskHits.Load()
}

// FlushBytes returns the segment-log bytes flushes have written: evictions
// and drains, not cleaning's re-appends (SegmentStats).
func (s *Store) FlushBytes() int64 { return s.flushedBytes.Load() }

// FlushedBatches returns the number of (key, window) batches flushes have
// written to the segment logs.
func (s *Store) FlushedBatches() int64 { return s.flushedBatches.Load() }

// Evictions returns the number of prefetched windows evicted by wrong ETT
// estimates.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// IndexScans returns the number of prefetch misses that scanned the
// segment logs.
func (s *Store) IndexScans() int64 { return s.indexScans.Load() }

// BufferedBytes returns the current write-buffer occupancy.
func (s *Store) BufferedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufBytes
}

// PrefetchedBytes returns the current prefetch-buffer occupancy.
func (s *Store) PrefetchedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prefetchBytes
}

// LiveStates returns the number of live (key, window) states tracked.
func (s *Store) LiveStates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// DiskUsage returns the logical bytes of the instance's segment logs,
// including appends still in their write-through buffers.
func (s *Store) DiskUsage() int64 { return s.segs.Size() }

// Close closes the store's log files, leaving state on disk.
func (s *Store) Close() error { return s.segs.Close() }

// Destroy closes the store and deletes its directory.
func (s *Store) Destroy() error {
	err := s.Close()
	if derr := s.dir.RemoveAll(); derr != nil && err == nil {
		err = derr
	}
	return err
}
