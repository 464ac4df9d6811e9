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
// Predictive batch read. An in-memory Stat table tracks each live
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
// that hold what it selected. Memory holds, per flushed identity, which
// segments hold its batches and how many bytes in each — not where.
//
// # Concurrency
//
// A Store instance is safe for concurrent use. Two locks split the state:
//
//   - mu guards the in-memory maps: write buffer, Stat table, prefetch
//     buffer and the per-id on-disk byte accounting. Appends, and
//     Get/Read/Drop of state that lives only in the buffer, take mu
//     alone, so ingestion never waits for disk.
//   - ioMu serializes everything involving the segments' logs: flushes,
//     batch-read scans, cleaning, drops, checkpoints — plus the
//     segments' consumed marks, which only disk-touching paths mutate.
//     mu is never held across I/O; a flush detaches the buffer under mu,
//     writes with only ioMu held, and installs the on-disk accounting
//     under mu again.
//
// The lock order is ioMu before mu; mu is never held while acquiring
// ioMu. The segment table and the segments' live counts change only with
// both held, so either suffices to read them. Operations on an identity
// with on-disk state, or one mid-flight in a flush, divert to the slow
// path (which waits on ioMu) so a fetch-&-remove can never miss values
// between buffer and log.
package aur

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
	// prefetched per predictive batch read. 0 disables prediction (every
	// read with on-disk state scans its segments for that state alone).
	// The paper's default is 0.02.
	ReadBatchRatio float64
	// MinBatchWindows floors the per-scan prefetch count when the ratio
	// yields fewer (small live sets would otherwise trigger a segment
	// scan every few reads; at the paper's scale ratio × live windows is
	// in the thousands and this floor is never reached). Default 64.
	MinBatchWindows int
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
}

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
	if o.MinBatchWindows <= 0 {
		o.MinBatchWindows = 64
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

type bufEntry struct {
	values [][]byte
	bytes  int64
	// ett is the identity's Stat-table estimate as of its latest append,
	// kept here so a flush can order its batches without the table.
	ett    int64
	hasETT bool
}

// statEntry is one row of the in-memory Stat table.
type statEntry struct {
	maxTS  int64
	ett    int64
	hasETT bool
	// spilled says the identity has a row in onDisk, so the pass over the
	// table that selects a batch read does not probe a second map per row.
	spilled bool
}

// segShare is the encoded bytes of one identity's live batches in one
// segment.
type segShare struct {
	seg uint32
	n   int64
}

// addShare adds n (negative to take away) to the share seg holds; a share
// that reaches zero goes.
func addShare(shares []segShare, seg uint32, n int64) []segShare {
	for i := range shares {
		if shares[i].seg == seg {
			if shares[i].n += n; shares[i].n == 0 {
				return slices.Delete(shares, i, i+1)
			}
			return shares
		}
	}
	return append(shares, segShare{seg, n})
}

// segment is one log of the segment set, in logfile.Segments' lifecycle.
type segment = logfile.Segment[segState]

// segmentPrefix names the segment files: aur-NNNNNN.log.
const segmentPrefix = "aur"

func segmentName(id uint32) string { return logfile.SegmentName(segmentPrefix, id) }

// segState is what the store keeps per segment beside its log, all owned
// by ioMu.
type segState struct {
	// epoch is the segment's random identity in a checkpoint's SEGMENTS
	// manifest: a cut links what its parent holds only while they match.
	epoch uint64
	// committed is the length of the log whose blocks hold installed
	// batches; only a cleaning pass that failed after appending blocks
	// leaves any past it, and they are never read.
	committed int64
	// consumed maps the identBytes of an identity consumed from this
	// segment to committed at that moment: its batches in blocks below
	// that offset are dead, those a later life of the same (key, window)
	// lands here — flushed into an open head, or cleaned in — are not.
	consumed map[string]int64
}

// dead reports whether a batch of the identity whose identBytes are ident,
// in the block at offset off, was consumed; caller holds ioMu.
func (st *segState) dead(ident []byte, off int64) bool {
	mark, ok := st.consumed[string(ident)]
	return ok && off < mark
}

// Store is a single AUR store instance, safe for concurrent use.
type Store struct {
	opts Options
	dir  *logfile.Dir
	bd   *metrics.Breakdown

	// mu guards the in-memory state below.
	mu       sync.Mutex
	buf      map[id]*bufEntry
	bufBytes int64
	stat     map[id]*statEntry
	// onDisk says, per live flushed identity, which segments hold its
	// batches and how many bytes in each — not where: that is on disk.
	onDisk   map[id][]segShare
	flushing map[id]*bufEntry
	// statMarks marks identities whose Stat entry changed since the
	// last committed delta checkpoint, so an incremental checkpoint
	// ships only those rows (as upserts or tombstones) instead of
	// rewriting the whole table, and remembers that cut's id, which a
	// parent checkpoint must match for its stat stream to be extended.
	statMarks *ckpt.Marks[id]

	prefetch      map[id][][]byte
	prefetchBytes int64

	// ioMu serializes log I/O and the state only disk paths touch.
	// Never acquired while holding mu.
	ioMu sync.Mutex
	// segs is the log: every segment, the flush head and the survivor.
	segs *logfile.Segments[segState]
	seq  uint64 // the last flush's sequence number (see block.go)

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
// created as flushes need them; a store that never spills owns none.
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	s := &Store{
		opts:      opts,
		dir:       dir,
		bd:        opts.Breakdown,
		buf:       make(map[id]*bufEntry),
		stat:      make(map[id]*statEntry),
		onDisk:    make(map[id][]segShare),
		prefetch:  make(map[id][][]byte),
		statMarks: ckpt.NewMarks[id](),
	}
	s.segs = logfile.NewSegments(dir, &s.ioMu, &s.mu, segmentPrefix, opts.WriteBufferBytes,
		opts.MaxSpaceAmplification, func() segState {
			return segState{epoch: ckpt.Rand64(), consumed: make(map[string]int64)}
		})
	return s, nil
}

// dropStatLocked removes ident's Stat row, if it has one, and marks the
// removal for the next delta checkpoint; caller holds mu.
func (s *Store) dropStatLocked(ident id) {
	if _, ok := s.stat[ident]; ok {
		delete(s.stat, ident)
		s.statMarks.Remove(ident)
	}
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
	// A new tuple for a prefetched window proves its ETT estimate wrong:
	// evict the stale prefetched state (§4.2); it will be re-read when
	// the window actually triggers.
	if _, ok := s.prefetch[ident]; ok {
		s.dropPrefetchLocked(ident)
		s.evictions.Inc()
	}

	e := s.buf[ident]
	if e == nil {
		e = &bufEntry{}
		s.buf[ident] = e
	}
	e.values = append(e.values, vc)
	sz := int64(len(value) + 24)
	e.bytes += sz
	s.bufBytes += sz

	// Update the Stat table (step ②).
	st := s.stat[ident]
	if st == nil {
		st = &statEntry{maxTS: ts}
		s.stat[ident] = st
		s.statMarks.Upsert(ident, false)
	} else if ts > st.maxTS {
		st.maxTS = ts
		s.statMarks.Upsert(ident, true)
	}
	if s.opts.Predictor != nil {
		if ett, ok := s.opts.Predictor.ETT(w, st.maxTS); ok {
			st.ett, st.hasETT = ett, true
		}
	}
	e.ett, e.hasETT = st.ett, st.hasETT
	need := s.bufBytes > s.opts.WriteBufferBytes
	s.mu.Unlock()

	if !need {
		return nil
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(false); err != nil {
		return err
	}
	return s.cleanLocked()
}

// flushItem is one buffered batch on its way to disk.
type flushItem struct {
	ident id
	e     *bufEntry
	n     int64 // encoded bytes of its entry, once written
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
	case a.e.hasETT != b.e.hasETT:
		if a.e.hasETT {
			return -1
		}
		return 1
	case a.e.hasETT && a.e.ett != b.e.ett:
		if a.e.ett < b.e.ett {
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

// detachLocked removes from the buffer, and returns, the batch a flush
// writes — marked in flight — or nil when there is nothing to do: an empty
// buffer, or an eviction that queued on ioMu behind another and finds the
// buffer no longer full. Caller holds ioMu and mu. A drain takes
// everything. An eviction takes the quarter of the buffered identities
// that come last in byTrigger order, found by selection rather than by
// sorting the buffer — unless what that leaves is still over the cap (a
// few large batches among many small ones), and then it too takes
// everything, so a flush always brings the buffer back under
// WriteBufferBytes. items lists the batch when selecting built the list
// anyway.
//
// Why the estimated trigger time and not the window's end, the order the
// RMW store evicts by: an RMW update reads its aggregate back, an AUR
// append reads nothing, so the trigger is the only access that wants the
// state in memory — and the session just appended to (latest maxTS + gap)
// is the one furthest from it. Ordered by the initial window's end the
// session benchmark writes 39.0 B an event, more than draining the buffer
// whole (35.1 B); ordered by ETT, 26.7 B.
func (s *Store) detachLocked(all bool) (batch map[id]*bufEntry, items []flushItem) {
	if len(s.buf) == 0 || (!all && s.bufBytes <= s.opts.WriteBufferBytes) {
		return nil, nil
	}
	if !all {
		items = make([]flushItem, 0, len(s.buf))
		for ident, e := range s.buf {
			items = append(items, flushItem{ident: ident, e: e})
		}
		k := (len(items) + evictDivisor - 1) / evictDivisor
		window.SelectLast(items, k, triggersLater)
		var bytes int64
		for _, it := range items[:k] {
			bytes += it.e.bytes
		}
		if s.bufBytes-bytes <= s.opts.WriteBufferBytes {
			items = items[:k]
			batch = make(map[id]*bufEntry, k)
			for _, it := range items {
				batch[it.ident] = it.e
				delete(s.buf, it.ident)
			}
			s.bufBytes -= bytes
			s.flushing = batch
			return batch, items
		}
	}
	batch = s.buf
	s.buf = make(map[id]*bufEntry)
	s.bufBytes = 0
	s.flushing = batch
	return batch, items
}

// flushLocked spills buffered batches (step ③): all of them for a drain
// (Flush, Sync, CheckpointDelta — the drain is the checkpoint cut), the
// quarter that will trigger last for the eviction an Append starts on
// finding the buffer full (detachLocked). One block entry per (key,
// window) batch, in byTrigger order. Caller holds ioMu. The batch is
// detached under mu and written with only ioMu held, so ingestion
// proceeds; ids in the detached batch are marked in-flight, diverting
// their reads to the slow path until the on-disk accounting is installed.
//
// A full buffer's flush seals the segment it wrote, so in steady state
// every segment holds one eviction and its batches share a lifetime. A
// drain of a buffer that was not full leaves the head open for the next
// flush rather than sealing a tiny file.
func (s *Store) flushLocked(all bool) error {
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	full := s.bufBytes > s.opts.WriteBufferBytes
	batch, items := s.detachLocked(all)
	s.mu.Unlock()
	if batch == nil {
		return nil
	}
	// A head that cannot be created fails the flush like a failed first
	// write: everything detached goes back.
	head, werr := s.segs.OpenHead()
	s.seq++
	if items == nil {
		items = make([]flushItem, 0, len(batch))
		for ident, e := range batch {
			items = append(items, flushItem{ident: ident, e: e})
		}
	}
	slices.SortFunc(items, byTrigger)

	// items[:installed] are in blocks the head's log accepted.
	var installed int
	var bytes int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		off, n, err := head.Log.Append(block)
		if err != nil {
			return err
		}
		items[installed].n += int64(n - body)
		bytes += int64(n)
		installed += entries
		head.X.committed = off + int64(n)
		return nil
	}}
	for i := 0; werr == nil && i < len(items); i++ {
		it := &items[i]
		_, n, err := bw.Add(s.seq, it.ident.key, it.ident.w, it.e.values)
		it.n, werr = int64(n), err
	}
	if werr == nil {
		werr = bw.Flush()
	}
	s.flushedBytes.Add(bytes)
	s.flushedBatches.Add(int64(installed))

	s.mu.Lock()
	s.flushing = nil
	for _, it := range items[:installed] {
		delete(batch, it.ident)
		s.onDisk[it.ident] = addShare(s.onDisk[it.ident], head.ID, it.n)
		head.Live += it.n
		if st := s.stat[it.ident]; st != nil {
			st.spilled = true
		}
		// A prefetch entry covers every flushed span of its id at the
		// instant it was installed; the span just written is not among
		// them, so the entry (installed by a batch read that targeted a
		// different id while this one sat in the buffer) is now stale
		// and must go, exactly as an append evicts it.
		if _, ok := s.prefetch[it.ident]; ok {
			s.dropPrefetchLocked(it.ident)
			s.evictions.Inc()
		}
	}
	if werr != nil && !DisableFlushReattach {
		// Flush failure is atomic: batches the logs did not fully accept
		// go back into the live buffer, prepended so value order per id
		// stays chronological relative to appends that raced in since
		// the detach. No acked Append is lost.
		for ident, e := range batch {
			cur := s.buf[ident]
			if cur == nil {
				s.buf[ident] = e
			} else {
				cur.values = append(e.values, cur.values...)
				cur.bytes += e.bytes
			}
			s.bufBytes += e.bytes
			if _, ok := s.prefetch[ident]; ok {
				s.dropPrefetchLocked(ident)
				s.evictions.Inc()
			}
		}
	}
	s.mu.Unlock()
	if werr == nil {
		s.segs.Seal(head, full)
	}
	return werr
}

// fastPathLocked reports whether ident can be served under mu alone:
// no on-disk state and no copy mid-flight in a flush. Caller holds mu.
func (s *Store) fastPathLocked(ident id) bool {
	if len(s.onDisk[ident]) > 0 {
		return false
	}
	_, inflight := s.flushing[ident]
	return !inflight
}

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
	if s.fastPathLocked(ident) {
		bufVals := s.takeBufferedLocked(ident)
		if bufVals != nil {
			s.bufferHits.Inc()
		}
		s.dropStatLocked(ident)
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
	onDisk := len(s.onDisk[ident]) > 0
	diskVals, err := s.diskValuesLocked(ident)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	var emptied bool
	if onDisk {
		s.dropPrefetchLocked(ident)
		emptied = s.consumeDiskLocked(ident)
	}
	bufVals := s.takeBufferedLocked(ident)
	if diskVals != nil {
		s.diskHits.Inc()
	} else if bufVals != nil {
		s.bufferHits.Inc()
	}
	s.dropStatLocked(ident)
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
	if s.fastPathLocked(ident) {
		var out [][]byte
		if e, ok := s.buf[ident]; ok {
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
	diskVals, err := s.diskValuesLocked(ident)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	var bufVals [][]byte
	if e, ok := s.buf[ident]; ok {
		bufVals = e.values
	}
	s.mu.Unlock()

	if diskVals == nil && bufVals == nil {
		return nil, nil
	}
	out := make([][]byte, 0, len(diskVals)+len(bufVals))
	out = append(out, diskVals...)
	return append(out, bufVals...), nil
}

// diskValuesLocked returns ident's on-disk values, nil if it has none:
// from the prefetch buffer (step ④) or, on a miss, by a predictive batch
// read (steps ⑤–⑦). The values come back directly: a concurrent Append to
// this id while mu is released would evict its fresh prefetch entry, so
// the map cannot be re-read. Caller holds ioMu and mu, which a batch read
// releases and which is held again on return.
func (s *Store) diskValuesLocked(ident id) ([][]byte, error) {
	if len(s.onDisk[ident]) == 0 {
		return nil, nil
	}
	if pv, ok := s.prefetch[ident]; ok {
		s.ratio.Hit()
		return pv, nil
	}
	s.ratio.Miss()
	s.mu.Unlock()
	defer s.mu.Lock()
	return s.batchReadLocked(ident)
}

// Peek returns the number of buffered, on-disk and prefetched bytes held
// for (key, window) without consuming them. Diagnostic/testing hook.
func (s *Store) Peek(key []byte, w window.Window) (buffered, onDisk int64, prefetched bool) {
	ident := id{key: string(key), w: w}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.buf[ident]; ok {
		buffered = e.bytes
	}
	_, prefetched = s.prefetch[ident]
	for _, sh := range s.onDisk[ident] {
		onDisk += sh.n
	}
	return buffered, onDisk, prefetched
}

// ForEachLive invokes fn for every live (unconsumed) unit of state — a
// (key, initial window) identity — with its values in append order and
// the maximum event timestamp observed for the identity. The enumeration
// is non-destructive: values stay live and the Stat table row is kept.
// Used by job rescaling to re-route committed state into a new worker
// set. Identities are visited in (key, window) order.
func (s *Store) ForEachLive(fn func(key []byte, w window.Window, values [][]byte, maxTS int64) error) error {
	type liveID struct {
		ident id
		maxTS int64
	}
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	ids := make([]liveID, 0, len(s.stat))
	for ident, st := range s.stat {
		ids = append(ids, liveID{ident: ident, maxTS: st.maxTS})
	}
	s.mu.Unlock()
	slices.SortFunc(ids, func(a, b liveID) int { return compareIDs(a.ident, b.ident) })
	for _, li := range ids {
		vals, err := s.Read([]byte(li.ident.key), li.ident.w)
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			continue
		}
		if err := fn([]byte(li.ident.key), li.ident.w, vals, li.maxTS); err != nil {
			return err
		}
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
	if s.fastPathLocked(ident) {
		s.takeBufferedLocked(ident)
		s.dropStatLocked(ident)
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
	s.takeBufferedLocked(ident)
	s.dropPrefetchLocked(ident)
	emptied := s.consumeDiskLocked(ident)
	s.dropStatLocked(ident)
	s.mu.Unlock()
	if emptied {
		_ = s.segs.Reap() // still tracked on failure; the next reap retries
	}
	return nil
}

// takeBufferedLocked removes ident's batch from the write buffer and
// returns its values, nil if it has none; caller holds mu.
func (s *Store) takeBufferedLocked(ident id) [][]byte {
	e, ok := s.buf[ident]
	if !ok {
		return nil
	}
	s.bufBytes -= e.bytes
	delete(s.buf, ident)
	return e.values
}

// consumeDiskLocked retires ident's flushed batches, debiting exactly the
// segments that hold them: every batch of it such a segment holds now —
// all in blocks below its committed length — is dead, and a batch a new
// life of the same (key, window) lands there later is above that mark and
// is not. It reports whether that emptied a sealed segment, which is then
// due a reap. Caller holds ioMu, so no flush is in flight, and mu.
func (s *Store) consumeDiskLocked(ident id) (emptied bool) {
	shares := s.onDisk[ident]
	if len(shares) == 0 {
		return false
	}
	key := string(identBytes(ident))
	for _, sh := range shares {
		sg := s.segs.Get(sh.seg)
		sg.Live -= sh.n
		sg.X.consumed[key] = sg.X.committed
		emptied = emptied || sg.Sealed && sg.Live == 0
	}
	delete(s.onDisk, ident)
	return emptied
}

// dropPrefetchLocked removes ident's prefetched values; caller holds mu.
func (s *Store) dropPrefetchLocked(ident id) {
	if vs, ok := s.prefetch[ident]; ok {
		for _, v := range vs {
			s.prefetchBytes -= int64(len(v))
		}
		delete(s.prefetch, ident)
	}
}

// batchReadLocked performs one predictive batch read targeting ident:
// select the target plus the N flushed windows nearest their ETT, then scan
// the blocks of the segments holding them, taking the selected batches'
// values as the scan finds them, into the prefetch buffer. Caller holds
// ioMu (not mu).
//
// The target's values are returned directly rather than via the
// prefetch buffer: a concurrent Append to the target between the
// prefetch install and the caller's next mu acquisition evicts the
// entry, so a caller that re-read s.prefetch[target] could find nothing
// and lose the on-disk values it is about to consume.
func (s *Store) batchReadLocked(target id) ([][]byte, error) {
	// Selecting before scanning means a scan reads only the segments the
	// selection names, copies values for the selected ids alone, and
	// stops in each segment once it has found what onDisk counts there.
	want, left := s.selectBatch(target)
	s.indexScans.Inc()
	type load struct {
		ident id
		seq   uint64
		vals  [][]byte
	}
	var loads []load
	for _, sg := range s.segs.List() {
		n := left[sg.ID]
		if n == 0 {
			continue
		}
		err := s.scanSegLocked(sg, func(off int64, ident []byte, e *logfile.BlockEntry) error {
			wanted, ok := want[string(ident)]
			if !ok || sg.X.dead(ident, off) {
				return nil
			}
			vals := make([][]byte, len(e.Values))
			for i, v := range e.Values {
				vals[i] = slices.Clone(v)
			}
			loads = append(loads, load{wanted, e.Seq, vals})
			if n -= int64(e.Size); n == 0 {
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
	// Append may already have evicted and re-created state for an id;
	// re-installing is harmless — Get merges prefetched disk values with
	// newer buffered ones. The target's values are also collected into a
	// caller-owned slice that no concurrent eviction can take away.
	slices.SortStableFunc(loads, func(a, b load) int { return cmp.Compare(a.seq, b.seq) })
	var targetVals [][]byte
	s.mu.Lock()
	for _, l := range loads {
		for _, v := range l.vals {
			s.prefetchBytes += int64(len(v))
		}
		s.prefetch[l.ident] = append(s.prefetch[l.ident], l.vals...)
		if l.ident == target {
			targetVals = append(targetVals, l.vals...)
		}
	}
	s.mu.Unlock()
	return targetVals, nil
}

// cand is a prefetch candidate: a flushed identity and its ETT.
type cand struct {
	ident id
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

// selectBatch picks the identities one predictive batch read loads, keyed
// by identBytes: the target plus the N flushed ids with the smallest ETT,
// N = ceil(ratio × live states) so any positive ratio prefetches at least
// one upcoming window. Ids without an ETT cannot be predicted and are
// only loaded on demand; ids already prefetched are skipped. The
// candidates are exactly the ids the segments hold live entries for —
// onDisk has a row for an id from its first installed flush until it is
// consumed — so the choice needs nothing from the scan, and the bytes
// onDisk counts for the chosen ids in each segment, returned as well, are
// exactly what a scan of that segment will find for them. One pass over
// the Stat table keeps the N soonest in a heap; once it is full, a row
// whose ETT is no sooner than the heap's latest costs one comparison.
// Caller holds ioMu.
func (s *Store) selectBatch(target id) (want map[string]id, left map[uint32]int64) {
	var soonest []cand
	s.mu.Lock()
	n := int(math.Ceil(s.opts.ReadBatchRatio * float64(len(s.stat))))
	if s.opts.ReadBatchRatio > 0 && n < s.opts.MinBatchWindows {
		n = s.opts.MinBatchWindows
	}
	if n > 0 {
		soonest = make([]cand, 0, min(n, len(s.onDisk)))
		for ident, st := range s.stat {
			c := cand{ident, st.ett}
			if !st.hasETT || !st.spilled || len(soonest) == n && !c.sooner(soonest[0]) {
				continue
			}
			if ident == target {
				continue
			}
			if _, already := s.prefetch[ident]; already {
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
	want = make(map[string]id, len(soonest)+1)
	left = make(map[uint32]int64)
	add := func(ident id) {
		want[string(identBytes(ident))] = ident
		for _, sh := range s.onDisk[ident] {
			left[sh.seg] += sh.n
		}
	}
	add(target)
	for _, c := range soonest {
		add(c.ident)
	}
	s.mu.Unlock()
	return want, left
}

// errScanDone, returned by a scan callback, ends the scan without error.
var errScanDone = errors.New("aur: segment scan done")

// scanSegLocked reads sg's log once, calling fn for every entry — consumed
// ones included, the caller filters — with the offset of its block and its
// identity's identBytes, until the committed blocks end or fn returns
// errScanDone. ident, the entry and the slices it holds are valid only
// during the call. Caller holds ioMu, under which the consumed marks are
// stable.
func (s *Store) scanSegLocked(sg *segment, fn func(off int64, ident []byte, e *logfile.BlockEntry) error) error {
	if s.bd != nil {
		defer s.bd.Start(metrics.OpRead)()
	}
	sc, err := sg.Log.Scanner(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	var ident []byte
	for off := int64(0); sc.Scan() && sc.Offset() <= sg.X.committed; off = sc.Offset() {
		// The block's first entry counts its frame as well (block.go).
		frame := int(sc.Offset()-off) - len(sc.Record())
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			e.Size, frame = e.Size+frame, 0
			ident = appendIdent(ident[:0], e.Key, e.Window)
			return fn(off, ident, e)
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
	return sc.Err()
}

// move is one batch a cleaning pass re-encoded out of segment from: n
// bytes there, to bytes in the survivor.
type move struct {
	ident id
	from  *segment
	n, to int64
}

// cleanLocked, behind an evicting flush, reaps the segments that emptied
// by themselves and, when amplification — log bytes over live entry bytes
// — still exceeds MSA, runs one cleaning pass (§4.2's compaction, per
// segment; logfile.Segments.Clean); caller holds ioMu, under which the
// live set cannot change: consuming state requires ioMu and appends only
// touch the buffer. The pass scans each victim once and re-encodes its
// live entries into the survivor's blocks; nothing is installed until the
// survivor's log has accepted every block, and blocks a failed pass
// appended lie past committed, never read.
func (s *Store) cleanLocked() error {
	var moved []move
	var surv *segment
	var appended, committed int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		off, n, err := surv.Log.Append(block)
		if err != nil {
			return err
		}
		moved[len(moved)-entries].to += int64(n - body)
		appended, committed = appended+int64(n), off+int64(n)
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
		if len(moved) == 0 {
			return appended, nil
		}
		sv.X.committed = committed
		s.mu.Lock()
		for _, m := range moved {
			shares := addShare(s.onDisk[m.ident], m.from.ID, -m.n)
			s.onDisk[m.ident] = addShare(shares, sv.ID, m.to)
			m.from.Live -= m.n
			sv.Live += m.to
		}
		s.mu.Unlock()
		return appended, nil
	})
}

// copyLiveLocked scans victim v's blocks once and hands every batch still
// live in it to bw, under the sequence number it was first written with,
// recording the moves; caller holds ioMu. The scan stops once it has seen
// all of v's live bytes.
func (s *Store) copyLiveLocked(v *segment, left int64, bw *logfile.BlockWriter, moved *[]move) error {
	return s.scanSegLocked(v, func(off int64, ident []byte, e *logfile.BlockEntry) error {
		if v.X.dead(ident, off) {
			return nil
		}
		m := move{ident: id{key: string(e.Key), w: e.Window}, from: v, n: int64(e.Size)}
		_, to, err := bw.Add(e.Seq, m.ident.key, e.Window, e.Values)
		if err != nil {
			return err
		}
		m.to = int64(to)
		*moved = append(*moved, m)
		if left -= m.n; left == 0 {
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
	if err := s.flushLocked(true); err != nil {
		return err
	}
	return s.segs.Flush()
}

// Sync flushes all buffered data and fsyncs every log holding bytes not
// yet durable, making every acknowledged Append durable (logfile.Segments.Sync: each fsync runs
// outside ioMu, so appends, batch reads and later flushes overlap it).
func (s *Store) Sync() error {
	return s.segs.Sync(func() error { return s.flushLocked(true) })
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
	return len(s.stat)
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
