// Package rmw implements FlowKV's Read-Modify-Write store (paper §4.3),
// used for window operations with associative and commutative aggregate
// functions, which keep one intermediate aggregate per (key, window)
// instead of a tuple list.
//
// The aggregate is read back on every tuple arrival, so nothing predicts
// an identity's next read; the store is an unsorted hash store — an
// in-memory hash write buffer, an in-memory hash index mapping
// (key, window) to on-disk locations, and an append-only log. What the
// window does tell the store is an identity's last read: no aggregate is
// consumed for good before its window ends.
//
// # Eviction by lifetime
//
// A full write buffer therefore does not spill everything. It evicts the
// quarter of the buffered identities whose windows end last — ordered by
// the identity's own window end, then start, then key — and keeps the
// rest: the state that triggers soonest stays in memory to be updated and
// finally consumed there, and the state that would have sat in the buffer
// longest goes to disk once. The window end is the exact trigger of an
// aligned window and a lower bound on a session's, and it never changes
// for an identity, so the order needs no clock, timestamp or predictor.
// A session's window end is its first tuple + gap, so sessions sort by
// start, not by trigger (maxTimestamp + gap): the victims are the
// sessions started last, and an extended session keeps its early place
// and stays in memory past sessions that will fire before it. Each
// eviction is written as a segment of its own, so a segment's aggregates
// also share a lifetime and tend to die together.
//
// # The segmented log
//
// Get is a fetch-&-remove, so a flushed aggregate is read back at most
// once and is then dead: window semantics tell the store when its bytes
// die. The log is therefore a logfile.Segments of rmw-NNNNNN.log files,
// one per full-buffer eviction, whose live count is the bytes the index
// still points at: state that dies in age order, as session and window
// aggregates do, empties whole segments, which are unlinked without a
// byte copied. A cleaning pass reads each victim once, sequentially, and
// re-encodes the entries the index still points at into the survivor's
// blocks. The head is sealed behind every full-buffer eviction, so a sealed
// segment is never smaller than one eviction — a quarter of the buffer —
// and the instance holds at most about MSA·live/eviction + 2 files.
//
// # Blocks
//
// A segment is written in the segment block format the AUR store shares
// (logfile.BlockWriter): frames closed once their entries reach
// segmentBlockBytes, each entry one (key, window) and its one aggregate,
// with the window as deltas from the entry before it. A flush writes its
// victims in lifetime order — by window end, then start, then key — so
// neighbouring entries are sessions that opened one after another with the
// same width, and the deltas take a byte each. The index points at the
// entry inside its block: a miss reads the one block, whose checksum
// covers every entry in it, and decodes only the entry it wants.
//
// # Concurrency
//
// A Store instance is safe for concurrent use. Two locks split the state:
//
//   - mu guards the table (one slot per identity: its buffered aggregate
//     or the span of its flushed one, and whether a flush has it in
//     flight) and the segments' live-byte counts. Every fast-path
//     operation — Put, and Get served from the buffer — takes only mu, so
//     ingestion never waits for disk.
//   - ioMu serializes everything that touches the segment files: flushes,
//     cleaning, segment drops, indexed reads, checkpoints. mu is never
//     held across I/O; a flush detaches the buffer under mu, writes the
//     batch with only ioMu held, then installs the spans under mu again.
//
// The lock order is ioMu before mu; mu is never held while acquiring
// ioMu. The segment set is changed only with both held, so either lock
// suffices to read it. Operations on an identity that is part of an
// in-flight flush batch divert to the slow path (which waits on ioMu) so
// a fetch-&-remove can never miss values that are mid-flight between
// buffer and log.
package rmw

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("rmw: store closed")

// DisableFlushReattach, when set, restores the historical behaviour of
// dropping the unwritten remainder of a detached batch when a flush
// fails. It exists only so the error-injection battery can demonstrate
// that the re-attach is load-bearing; production code must never set it.
var DisableFlushReattach bool

// Options configures an RMW store instance.
type Options struct {
	// Dir is the directory holding the instance's log segments.
	Dir string
	// WriteBufferBytes caps the in-memory write buffer; exceeding it
	// evicts the quarter of the buffered aggregates whose windows end last
	// into a log segment of their own. It is also the size at which an
	// open segment is sealed. Default 32 MiB.
	WriteBufferBytes int64
	// MaxSpaceAmplification (MSA) triggers segment cleaning when
	// total/(total-dead) log bytes exceed it. Default 1.5.
	MaxSpaceAmplification float64
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

func (o *Options) fill() {
	if o.WriteBufferBytes <= 0 {
		o.WriteBufferBytes = 32 << 20
	}
	if o.MaxSpaceAmplification <= 0 {
		o.MaxSpaceAmplification = 1.5
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
}

type id struct {
	key string
	w   window.Window
}

// span locates one flushed aggregate: its block (segment, offset, framed
// length), its entry's offset in the block, share of the segment's bytes
// (its size, the block's header and frame too for a block's first entry)
// and ordinal among the segment's entries, its bit in a checkpoint.
type span struct {
	off   int64
	seg   uint32
	n     uint32
	entry uint32
	share uint32
	ord   uint32
}

// slot is an identity's row in the table, held by value. It lives from the
// Put that buffers the identity's aggregate to the Get that consumes it,
// and until then is buffered, indexed — its aggregate flushed to sp — or
// in flight in a flush, which may find it buffered again on landing. It is
// never both buffered and indexed: a Put retires the flushed copy.
type slot struct {
	agg                         []byte
	sp                          span
	buffered, indexed, flushing bool
}

// segment is one file of the log: logfile.Segments' lifecycle with a
// single log.
type segment = logfile.Segment

// segmentPrefix names the log's files, rmw-NNNNNN.log.
const segmentPrefix = "rmw"

// segmentBlockBytes is the entry payload at which a block is closed. A
// miss reads its entry's whole block, so the bound trades the frame and
// header a block adds to its entries against the bytes a miss reads. On
// the session benchmark (seed 1, traced; 1.2 M preads at every bound, and
// 27.6 MB, 16.15 B an event, 45 MB read with one frame per aggregate):
//
//	bound   rmw-*.log   write B/event   pread bytes   cpu s/Mevent
//	256 B   15.9 MB     12.58           334 MB        10.7
//	1 KiB   15.3 MB     12.41           1 236 MB      10.8
//	4 KiB   15.2 MB     12.37           4 282 MB      13.1
//
// Past 256 B a block saves a few hundredths of a byte an entry and costs
// a miss four times the read.
const segmentBlockBytes = 256

// Store is a single RMW store instance, safe for concurrent use.
type Store struct {
	opts Options
	dir  *logfile.Dir
	bd   *metrics.Breakdown

	// mu guards the in-memory state below.
	mu       sync.Mutex
	table    map[id]slot
	buffered int   // slots buffered
	bufBytes int64 // their aggregates' bytes

	// ioMu serializes segment I/O: flush, cleaning, drops, indexed reads,
	// checkpoint/restore. Never acquired while holding mu.
	ioMu sync.Mutex
	// segs is the log: every segment file, the flush head and the survivor.
	segs *logfile.Segments
	// victims is the slice a flush detaches its batch into, kept from one
	// flush to the next (they run one at a time, under ioMu).
	victims []bufAgg
	// seq numbers the flushes, and with them the blocks each writes.
	seq uint64

	puts         metrics.Counter
	flushedBytes metrics.Counter // framed bytes flushes appended
	flushedAggs  metrics.Counter // aggregates flushes appended
	bufferHits   metrics.Counter // aggregates consumed from the write buffer
	diskHits     metrics.Counter // aggregates consumed from a segment
}

// Open creates an RMW store instance rooted at opts.Dir. Segment files
// are created as flushes need them; a store that never spills owns none.
// A store starts empty: segment files an earlier process left in the
// directory are unlinked (logfile.NewSegments).
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	s := &Store{opts: opts, dir: dir, bd: opts.Breakdown, table: make(map[id]slot)}
	if s.segs, err = logfile.NewSegments(dir, &s.ioMu, &s.mu, segmentPrefix, opts.WriteBufferBytes, opts.MaxSpaceAmplification); err != nil {
		return nil, fmt.Errorf("rmw: open: %w", err)
	}
	return s, nil
}

// retireLocked accounts the entry at sp dead and reports whether that
// emptied a sealed segment, which is then due a reap; caller holds mu
// and has unindexed the slot.
func (s *Store) retireLocked(sp span) (emptied bool) {
	sg := s.segs.Get(sp.seg)
	sg.Live -= int64(sp.share)
	return sg.Sealed && sg.Live == 0
}

// Put stores the updated aggregate for (key, window) (paper API:
// Put(K, W, A)), replacing any previous aggregate. The value is copied.
func (s *Store) Put(key []byte, w window.Window, agg []byte) error {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpWrite)
	}
	err := s.put(key, w, agg)
	if stop != nil {
		stop()
	}
	return err
}

func (s *Store) put(key []byte, w window.Window, agg []byte) error {
	ident := id{key: string(key), w: w}
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	sl := s.table[ident]
	if sl.buffered {
		s.bufBytes -= int64(len(sl.agg))
	} else {
		s.buffered++
	}
	// A newer aggregate makes any flushed copy dead; the span is retired
	// immediately, the bytes with their segment (one this empties waits
	// for the next flush's reap: Put never waits for disk).
	if sl.indexed {
		sl.indexed = false
		s.retireLocked(sl.sp)
	}
	sl.agg, sl.buffered = make([]byte, len(agg)), true
	copy(sl.agg, agg)
	s.table[ident] = sl
	s.bufBytes += int64(len(agg))
	need := s.bufferFullLocked()
	s.mu.Unlock()
	s.puts.Inc()
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

// bufferFullLocked reports whether the write buffer has outgrown
// WriteBufferBytes; caller holds mu.
func (s *Store) bufferFullLocked() bool {
	return s.overCap(s.bufBytes, s.buffered)
}

// overCap reports whether n buffered aggregates totalling bytes outgrow
// WriteBufferBytes, each entry charged 48 bytes of map and key overhead.
func (s *Store) overCap(bytes int64, n int) bool {
	return bytes+int64(n)*48 > s.opts.WriteBufferBytes
}

// Get fetches and removes the aggregate of (key, window) (paper API:
// Get(K, W)). ok is false when no aggregate exists.
func (s *Store) Get(key []byte, w window.Window) (agg []byte, ok bool, err error) {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpRead)
	}
	agg, ok, err = s.get(key, w)
	if stop != nil {
		stop()
	}
	return agg, ok, err
}

// takeBufferedLocked consumes ident's buffered aggregate, the slot sl,
// which no flush has in flight; caller holds mu.
func (s *Store) takeBufferedLocked(ident id, sl slot) []byte {
	delete(s.table, ident)
	s.buffered--
	s.bufBytes -= int64(len(sl.agg))
	s.bufferHits.Inc()
	return sl.agg
}

func (s *Store) get(key []byte, w window.Window) ([]byte, bool, error) {
	ident := id{key: string(key), w: w}

	// Fast path under mu alone: possible whenever the identity has no
	// copy in flight to disk — either a buffer hit or a definitive miss.
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if sl, ok := s.table[ident]; !ok || sl.buffered && !sl.flushing {
		var v []byte
		if ok {
			v = s.takeBufferedLocked(ident, sl)
		}
		s.mu.Unlock()
		return v, ok, nil
	}
	s.mu.Unlock()

	// Slow path: wait for any in-flight flush, then read from the log.
	return s.getFlushed(ident, true)
}

// getFlushed is Get's slow path: under ioMu, with any in-flight flush
// complete, the table is authoritative. With unlocked it
// drops ioMu before the pread, so point reads overlap fsyncs and flushes
// from other workers, and comes back without that licence if the read
// raced a segment drop, a cleaning move or another writer.
func (s *Store) getFlushed(ident id, unlocked bool) ([]byte, bool, error) {
	s.ioMu.Lock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		s.ioMu.Unlock()
		return nil, false, ErrClosed
	}
	sl, ok := s.table[ident]
	if !ok || sl.buffered {
		var v []byte
		if ok {
			v = s.takeBufferedLocked(ident, sl)
		}
		s.mu.Unlock()
		s.ioMu.Unlock()
		return v, ok, nil
	}
	sp := sl.sp
	lg := s.segs.Get(sp.seg).Log
	s.mu.Unlock()
	if !unlocked || lg.Poisoned() != nil || lg.Flush() != nil {
		// Also the degraded case: the stitched durable-prefix+tail read
		// walks the log's mutable state, so it stays under ioMu.
		v, err := s.readLocked(ident, sp)
		s.ioMu.Unlock()
		return v, err == nil, err
	}
	// The span's bytes are on the fd now.
	s.ioMu.Unlock()
	pr := pointReads.Get().(*pointRead)
	if cap(pr.buf) < int(sp.n) {
		pr.buf = make([]byte, sp.n)
	}
	block, err := lg.ReadRecordAtRaw(sp.off, pr.buf[:sp.n])
	if err != nil {
		pointReads.Put(pr)
		// The segment may have been dropped (or reopened by recovery) and
		// its fd closed while we read without the lock.
		return s.getFlushed(ident, false)
	}
	v, err := aggAt(lg, block, sp, ident.key, &pr.e)
	v = bytes.Clone(v) // the block goes back to the pool
	pointReads.Put(pr)
	if err != nil {
		return nil, false, err
	}
	consumed, emptied := s.consume(ident, sp)
	if !consumed {
		// The entry changed under the unlocked read — cleaning moved it,
		// a Put superseded it, or another Get won — so what was read may
		// not be what is live now.
		return s.getFlushed(ident, false)
	}
	if emptied {
		s.ioMu.Lock()
		// A failed unlink leaves the segment tracked; the next flush's
		// reap retries it and reports.
		_ = s.segs.Reap()
		s.ioMu.Unlock()
	}
	return v, true, nil
}

// readLocked reads and consumes the flushed aggregate at sp, which the
// caller found in the table while holding ioMu (still held): no cleaning
// pass or drop can have moved it since. A concurrent Put may have
// superseded it, and then the value read is the one this Get linearizes
// before.
func (s *Store) readLocked(ident id, sp span) ([]byte, error) {
	lg := s.segs.Get(sp.seg).Log
	block, err := lg.ReadRecordAt(sp.off, int(sp.n))
	if err != nil {
		return nil, err
	}
	var e logfile.BlockEntry
	v, err := aggAt(lg, block, sp, ident.key, &e)
	if err != nil {
		return nil, err
	}
	if _, emptied := s.consume(ident, sp); emptied {
		_ = s.segs.Reap() // still tracked on failure; the next reap retries
	}
	return v, nil
}

// consume retires ident's slot if it is still indexed at sp, reporting
// whether it was and whether retiring it emptied a sealed segment.
func (s *Store) consume(ident id, sp span) (consumed, emptied bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl := s.table[ident]; !sl.indexed || sl.sp != sp {
		return false, false
	}
	delete(s.table, ident)
	s.diskHits.Inc()
	return true, s.retireLocked(sp)
}

// ForEachLive invokes fn for every live aggregate with its key and
// window, in (key, window) order, without consuming anything: buffered
// aggregates are served from memory and flushed ones are read from their
// segments in place, by the scan cleaning uses. Used by job rescaling to
// re-route committed state into a new worker set.
func (s *Store) ForEachLive(fn func(key []byte, w window.Window, agg []byte) error) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	segs := s.segs.List()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	live := make([]bufAgg, 0, len(s.table))
	spilled := make(map[span]bool)
	for ident, sl := range s.table {
		if sl.buffered {
			live = append(live, bufAgg{ident, sl.agg})
		} else {
			spilled[sl.sp] = true
		}
	}
	s.mu.Unlock()
	for _, sg := range segs {
		err := s.scanLocked(sg, func(at span, e *logfile.BlockEntry) error {
			if spilled[at] {
				live = append(live, bufAgg{id{key: string(e.Key), w: e.Window}, bytes.Clone(e.Values[0])})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].ident.key != live[j].ident.key {
			return live[i].ident.key < live[j].ident.key
		}
		return live[i].ident.w.Before(live[j].ident.w)
	})
	for _, la := range live {
		if err := fn([]byte(la.ident.key), la.ident.w, la.v); err != nil {
			return err
		}
	}
	return nil
}

// ForEachIdentity calls fn for every live (key, window) identity, in no
// particular order, from the table alone: no segment is read. fn runs
// under the table's lock and must not call back into the store.
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

// pointRead is what a miss reads into, pooled: the block and the entry
// it decodes, so a miss allocates only the aggregate it returns.
type pointRead struct {
	buf []byte
	e   logfile.BlockEntry
}

var pointReads = sync.Pool{New: func() any { return new(pointRead) }}

// aggAt decodes the aggregate of key from the entry at sp in block, the
// payload read from lg, into e: only that entry, which must hold key and
// one value, else the read is a *logfile.BlockError naming the block. The
// aggregate aliases block.
func aggAt(lg *logfile.Log, block []byte, sp span, key string, e *logfile.BlockEntry) ([]byte, error) {
	err := logfile.SegmentEntryAt(block, int(sp.entry), e)
	switch {
	case err != nil:
	case string(e.Key) != key:
		err = &logfile.BlockError{Reason: fmt.Sprintf("entry at %d holds key %q, not %q", sp.entry, e.Key, key)}
	case len(e.Values) != 1:
		err = &logfile.BlockError{Reason: fmt.Sprintf("entry at %d holds %d values, not an aggregate", sp.entry, len(e.Values))}
	}
	if err != nil {
		return nil, fmt.Errorf("rmw: %s: block at %d: %w", lg.Path(), sp.off, err)
	}
	return e.Values[0], nil
}

// evictDivisor is the share of the buffered identities a full buffer
// evicts: the quarter whose windows end last. Replaying the session
// benchmark's operations, a quarter and an eighth flush the fewest records
// (a quarter below draining the buffer whole) and a half gives back a
// third of that; the eighth writes twice the files for the same bytes.
const evictDivisor = 4

// endsLater orders identities by lifetime: a's window ends after b's,
// ties by the later start, then by key, so the order is total and an
// eviction's victims — and with them every byte count downstream — are a
// function of the buffer's contents alone. Recency loses to it on the
// session benchmark (seed 1, traced, write B/event and preads): latest
// window end 8.347 and 1.186 M, most recently put 8.423 and 1.172 M, least
// recently put 9.039 and 1.447 M (DESIGN §5c).
func endsLater(a, b id) bool { return byLifetime(a, b) > 0 }

// victimEndsLater and victimByLifetime are the same orders on the batch a
// flush detaches.
func victimEndsLater(a, b bufAgg) bool { return endsLater(a.ident, b.ident) }
func victimByLifetime(a, b bufAgg) int { return byLifetime(a.ident, b.ident) }

// byLifetime is endsLater as a three-way comparison, ascending: the order a
// flush writes its victims in, so that neighbouring entries of a block
// opened one after another and share a width.
func byLifetime(a, b id) int {
	switch {
	case a.w.End != b.w.End:
		return cmp.Compare(a.w.End, b.w.End)
	case a.w.Start != b.w.Start:
		return cmp.Compare(a.w.Start, b.w.Start)
	}
	return strings.Compare(a.key, b.key)
}

// detachLocked takes out of the buffer the batch a flush writes, its slots
// marked in flight, and returns it; caller holds mu. A drain takes
// everything. An eviction takes the quarter of the buffered identities
// whose windows end last — unless what that leaves is still over the cap
// (a few large aggregates among many small ones), and then it too takes
// everything, so a flush always brings the buffer back under
// WriteBufferBytes.
func (s *Store) detachLocked(all bool) []bufAgg {
	victims := s.victims[:0]
	for ident, sl := range s.table {
		if sl.buffered {
			victims = append(victims, bufAgg{ident, sl.agg})
		}
	}
	s.victims = victims
	if !all {
		k := (len(victims) + evictDivisor - 1) / evictDivisor
		window.SelectLast(victims, k, victimEndsLater)
		var bytes int64
		for _, v := range victims[:k] {
			bytes += int64(len(v.v))
		}
		if !s.overCap(s.bufBytes-bytes, len(victims)-k) {
			victims = victims[:k]
		}
	}
	for _, v := range victims {
		s.table[v.ident] = slot{flushing: true}
		s.bufBytes -= int64(len(v.v))
	}
	s.buffered -= len(victims)
	return victims
}

// flushLocked spills buffered aggregates into the head segment and
// indexes them: all of them for a drain (Flush, Sync), the quarter that
// ends last for the eviction a Put starts on finding the buffer full — and
// nothing if an eviction queued behind another finds the buffer no longer
// full. Caller holds ioMu. The batch is detached under mu, sorted and
// written with only ioMu held (so ingestion proceeds), and installed under
// mu again; an id re-put while its batch was in flight keeps the newer
// buffered value and the flushed copy is born dead.
//
// A full buffer's flush seals the segment it wrote, so in steady state
// every segment holds one eviction and the aggregates in it share a
// lifetime. A drain of a buffer that was not full leaves the head open
// for the next flush rather than sealing a tiny file.
func (s *Store) flushLocked(all bool) error {
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	idle := s.buffered == 0 || (!all && !s.bufferFullLocked())
	s.mu.Unlock()
	if idle {
		return nil
	}
	// Before the buffer is detached: a failed create loses nothing.
	head, err := s.segs.OpenHead()
	if err != nil {
		return err
	}

	s.mu.Lock()
	full := s.bufferFullLocked()
	victims := s.detachLocked(all)
	s.mu.Unlock()
	defer clear(s.victims) // the next flush reuses the slice, not the aggregates
	slices.SortFunc(victims, victimByLifetime)

	// written[:installed] are in blocks the head's log accepted; the rest
	// hold their entry's offset among the open block's entries and size.
	s.seq++
	written := make([]placed, len(victims))
	var installed int
	var bytes int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		off, n, err := head.Log.Append(block)
		if err != nil {
			return err
		}
		placeBlock(written[installed:installed+entries], off, head, n, block, body)
		installed += entries
		bytes += int64(n)
		return nil
	}}
	var werr error
	vals := make([][]byte, 1)
	for i, v := range victims {
		vals[0] = v.v
		off, n, err := bw.Add(s.seq, v.ident.key, v.ident.w, vals)
		if err != nil {
			werr = err
			break
		}
		written[i] = placed{v.ident, span{entry: uint32(off), share: uint32(n)}}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	s.flushedBytes.Add(bytes)
	s.flushedAggs.Add(int64(installed))

	s.mu.Lock()
	for i, v := range victims {
		sl := s.table[v.ident]
		sl.flushing = false
		switch {
		case sl.buffered:
			// Re-put while in flight: the newer value stands, and a copy
			// the log accepted is born dead — in the segment's size, not in
			// its live count.
		case i < installed:
			sl.sp, sl.indexed = written[i].sp, true
			head.Live += int64(sl.sp.share)
		case !DisableFlushReattach:
			// Flush failure is atomic: aggregates the log did not accept go
			// back into the live buffer, so no acked Put is lost.
			sl.agg, sl.buffered = v.v, true
			s.buffered++
			s.bufBytes += int64(len(v.v))
		default:
			delete(s.table, v.ident)
			continue
		}
		s.table[v.ident] = sl
	}
	s.mu.Unlock()
	if werr != nil {
		return werr
	}
	s.segs.Seal(head, full)
	return nil
}

// placed is one entry a flush, a cleaning pass or a restore wrote: its
// identity and where it went.
type placed struct {
	ident id
	sp    span
}

// placeBlock completes the spans of ps, the entries of block, which Emit
// has just appended at off in segment sg, n bytes framed, body of them
// entries: until then each span held the entry's offset among the block's
// entries and its encoded size. The first entry's share takes the header
// and frame. Only a block the log accepted takes ordinals.
func placeBlock(ps []placed, off int64, sg *segment, n int, block []byte, body int) {
	hdr := uint32(len(block) - body)
	for i := range ps {
		sp := &ps[i].sp
		sp.off, sp.seg, sp.n = off, sg.ID, uint32(n)
		sp.entry += hdr
		sp.ord = sg.Entries
		sg.Entries++
	}
	ps[0].sp.share += uint32(n - body)
}

// moves are the entries a cleaning pass re-encoded into the survivor:
// where each was, and where it went.
type moves struct {
	from []span
	to   []placed
}

// cleanLocked reaps the segments that emptied by themselves and, when
// amplification still exceeds MSA, runs one cleaning pass
// (logfile.Segments.Clean): each victim's blocks are read once, in order,
// and every entry the index still points at is re-encoded into the
// survivor's blocks; then the slots are repointed. Slots a concurrent Put
// or Get unindexed while the pass ran are not repointed; their copies are
// born dead in the survivor. Caller holds ioMu.
func (s *Store) cleanLocked() error {
	var moved moves
	var surv *segment
	var appended int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		off, n, err := surv.Log.Append(block)
		if err != nil {
			return err
		}
		placeBlock(moved.to[len(moved.to)-entries:], off, surv, n, block, body)
		appended += int64(n)
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
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, to := range moved.to {
			from := moved.from[i]
			if sl := s.table[to.ident]; sl.indexed && sl.sp == from {
				sl.sp = to.sp
				s.table[to.ident] = sl
				s.segs.Get(from.seg).Live -= int64(from.share)
				sv.Live += int64(to.sp.share)
			}
		}
		return appended, nil
	})
}

// errScanDone, returned by a scan's callback, ends the scan.
var errScanDone = errors.New("rmw: segment scan done")

// copyLiveLocked scans victim v's blocks once and hands every entry a slot
// still points at to bw, recording the moves; caller holds ioMu. The scan
// stops once it has seen all of v's live bytes.
func (s *Store) copyLiveLocked(v *segment, want int64, bw *logfile.BlockWriter, moved *moves) error {
	var found int64
	return s.scanLocked(v, func(at span, e *logfile.BlockEntry) error {
		ident := id{key: string(e.Key), w: e.Window}
		s.mu.Lock()
		sl := s.table[ident]
		s.mu.Unlock()
		if !sl.indexed || sl.sp != at {
			return nil
		}
		eoff, en, err := bw.Add(s.seq, ident.key, e.Window, e.Values)
		if err != nil {
			return err
		}
		moved.from = append(moved.from, at)
		moved.to = append(moved.to, placed{ident, span{entry: uint32(eoff), share: uint32(en)}})
		if found += int64(at.share); found >= want {
			return errScanDone
		}
		return nil
	})
}

// scanLocked reads segment v's blocks once, in order, and hands fn every
// entry with the span the index holds for it while it is live; caller
// holds ioMu. fn's error ends the scan, errScanDone with nil. A block that
// is not canonical is a *logfile.BlockError, and blocks ending short of
// the log's size (a zeroed last page looks like a torn tail) a
// *binio.FrameError.
func (s *Store) scanLocked(v *segment, fn func(at span, e *logfile.BlockEntry) error) error {
	sc, err := v.Log.Scanner(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	var ord uint32
	for off := int64(0); sc.Scan(); off = sc.Offset() {
		n := sc.Offset() - off
		frame := int(n) - len(sc.Record()) // counted by the first entry
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			at := span{off: off, seg: v.ID, n: uint32(n), entry: uint32(e.Off), share: uint32(e.Size + frame), ord: ord}
			frame = 0
			ord++
			return fn(at, e)
		})
		switch {
		case err == errScanDone:
			return sc.Err() // nil; accounts the bytes read
		case errors.As(err, new(*logfile.BlockError)):
			return fmt.Errorf("rmw: %s: block at %d: %w", v.Log.Path(), off, err)
		case err != nil:
			return err
		}
	}
	if err := sc.Err(); err != nil || sc.Offset() == v.Log.Size() {
		return err
	}
	return fmt.Errorf("rmw: %s: %w", v.Log.Path(), &binio.FrameError{Reason: fmt.Sprintf("blocks end at offset %d of %d", sc.Offset(), v.Log.Size())})
}

// Flush spills all buffered data to disk (checkpoint support).
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(true); err != nil {
		return err
	}
	return s.segs.Flush()
}

// Sync flushes all buffered data and fsyncs every segment holding bytes
// not yet durable, making every acknowledged Put durable
// (logfile.Segments.Sync: each fsync runs outside ioMu, so concurrent
// point reads and later flushes overlap it).
func (s *Store) Sync() error {
	return s.segs.Sync(func() error { return s.flushLocked(true) })
}

// Poisoned returns the first poisoning error among the log's segments,
// or nil when all are healthy.
func (s *Store) Poisoned() error { return s.segs.Poisoned() }

// Recover reopens every poisoned segment from its durable offset,
// rewriting the retained unsynced tail, so the write path works again
// after the underlying fault has cleared.
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
// passes and what they re-appended, segments dropped and live.
func (s *Store) SegmentStats() logfile.SegmentStats { return s.segs.Stats() }

// FlushBytes returns the framed bytes flushes have appended to the log:
// evictions and drains, not cleaning's re-appends (SegmentStats).
func (s *Store) FlushBytes() int64 { return s.flushedBytes.Load() }

// HitCount returns how many aggregates Get consumed from the write buffer
// and how many it had to read back from a segment.
func (s *Store) HitCount() (buffer, disk int64) {
	return s.bufferHits.Load(), s.diskHits.Load()
}

// BufferedBytes returns the current write-buffer occupancy.
func (s *Store) BufferedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufBytes
}

// LiveStates returns the number of live (key, window) aggregates.
func (s *Store) LiveStates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// DiskUsage returns the logical bytes of the instance's log, including
// appends still in a segment's write-through buffer.
func (s *Store) DiskUsage() int64 { return s.segs.Size() }

// Close closes the store's segment files, leaving state on disk.
func (s *Store) Close() error { return s.segs.Close() }

// Destroy closes the store and deletes its directory.
func (s *Store) Destroy() error {
	err := s.Close()
	if derr := s.dir.RemoveAll(); derr != nil && err == nil {
		err = derr
	}
	return err
}
