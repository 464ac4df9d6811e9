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
// longest goes to disk once. The window end is a lower bound on a
// session's trigger and the exact trigger of an aligned window, it never
// changes for an identity, and in-order it sorts sessions as
// maxTimestamp + gap does, so the order needs no clock, timestamp or
// predictor. Each eviction is written as a segment of its own, so a
// segment's aggregates also share a lifetime and tend to die together.
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
// (logfile.BlockWriter): v1 frames closed once their entries reach
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
//   - mu guards the in-memory maps (buf, index, the segments' live-byte
//     counts and the in-flight flush marker). Every fast-path operation —
//     Put, and Get served from the buffer — takes only mu, so ingestion
//     never waits for disk.
//   - ioMu serializes everything that touches the segment files: flushes,
//     cleaning, segment drops, indexed reads, checkpoints. mu is never
//     held across I/O; a flush detaches the buffer under mu, writes the
//     batch with only ioMu held, then installs the index entries under mu
//     again.
//
// The lock order is ioMu before mu; mu is never held while acquiring
// ioMu. The segment table is changed only with both held, so either lock
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
	"flowkv/internal/ckpt"
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

// span locates one flushed aggregate: the block holding it — its segment,
// offset and framed length — the entry's offset in the block's payload,
// and the entry's share of the segment's bytes: its encoded size, the
// block's header and frame included for a block's first entry.
type span struct {
	off   int64
	seg   uint32
	n     uint32
	entry uint32
	share uint32
}

// segment is one file of the log: logfile.Segments' lifecycle with a
// single log and no state of the store's own.
type segment = logfile.Segment[struct{}]

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
	buf      map[id][]byte // latest aggregate per id, not yet flushed
	bufBytes int64
	index    map[id]span   // on-disk location of each flushed aggregate
	flushing map[id][]byte // batch detached by an in-flight flush, nil otherwise
	// marks tracks every identity mutated since the last committed delta
	// checkpoint — an upsert (Put) or a tombstone (fetch-&-remove) — and
	// the id of that cut; CheckpointDelta persists exactly these marks on
	// top of the parent checkpoint.
	marks *ckpt.Marks[id]

	// ioMu serializes segment I/O: flush, cleaning, drops, indexed reads,
	// checkpoint/restore. Never acquired while holding mu.
	ioMu sync.Mutex
	// segs is the log: every segment file, the flush head and the survivor.
	segs *logfile.Segments[struct{}]
	// evictIDs is the slice an eviction selects its victims in, kept from
	// one eviction to the next (they run one at a time, under ioMu).
	evictIDs []id
	// seq numbers the flushes, and with them the blocks each writes.
	seq uint64

	puts         metrics.Counter
	flushedBytes metrics.Counter // framed bytes flushes appended
	flushedAggs  metrics.Counter // aggregates flushes appended
	bufferHits   metrics.Counter // aggregates consumed from the write buffer
	diskHits     metrics.Counter // aggregates consumed from a segment
	rebases      metrics.Counter // cuts written as a base though the parent could be extended
}

// Open creates an RMW store instance rooted at opts.Dir. Segment files
// are created as flushes need them; a store that never spills owns none.
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	s := &Store{
		opts:  opts,
		dir:   dir,
		bd:    opts.Breakdown,
		buf:   make(map[id][]byte),
		index: make(map[id]span),
		marks: ckpt.NewMarks[id](),
	}
	s.segs = logfile.NewSegments[struct{}](dir, &s.ioMu, &s.mu, segmentPrefix,
		opts.WriteBufferBytes, opts.MaxSpaceAmplification, nil)
	return s, nil
}

// retireLocked accounts the entry at sp dead and reports whether that
// emptied a sealed segment, which is then due a reap; caller holds mu
// and has removed the index entry.
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
	old, wasLive := s.buf[ident]
	if wasLive {
		s.bufBytes -= int64(len(old))
	}
	// A newer aggregate makes any flushed copy dead; the index entry is
	// retired immediately, the bytes with their segment (one this
	// empties waits for the next flush's reap: Put never waits for disk).
	if sp, ok := s.index[ident]; ok {
		delete(s.index, ident)
		s.retireLocked(sp)
		wasLive = true
	}
	if !wasLive {
		_, wasLive = s.flushing[ident]
	}
	ac := make([]byte, len(agg))
	copy(ac, agg)
	s.buf[ident] = ac
	s.bufBytes += int64(len(ac))
	s.marks.Upsert(ident, wasLive)
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
	return s.overCap(s.bufBytes, len(s.buf))
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

// takeBufferedLocked consumes ident's buffered aggregate, if any; caller
// holds mu.
func (s *Store) takeBufferedLocked(ident id) ([]byte, bool) {
	v, ok := s.buf[ident]
	if !ok {
		return nil, false
	}
	s.bufBytes -= int64(len(v))
	delete(s.buf, ident)
	s.marks.Remove(ident)
	s.bufferHits.Inc()
	return v, true
}

func (s *Store) get(key []byte, w window.Window) ([]byte, bool, error) {
	ident := id{key: string(key), w: w}

	// Fast path under mu alone: possible whenever the identity has no
	// copy in flight to disk — either a pure buffer hit (put invariant:
	// a buffered id is never also indexed) or a definitive miss.
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if _, inflight := s.flushing[ident]; !inflight {
		if v, ok := s.takeBufferedLocked(ident); ok {
			s.mu.Unlock()
			return v, true, nil
		}
		if _, ok := s.index[ident]; !ok {
			s.mu.Unlock()
			return nil, false, nil
		}
	}
	s.mu.Unlock()

	// Slow path: wait for any in-flight flush, then read from the log.
	return s.getFlushed(ident, true)
}

// getFlushed is Get's slow path: under ioMu, with any in-flight flush
// complete, the buffer and the index are authoritative. With unlocked it
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
	if v, ok := s.takeBufferedLocked(ident); ok {
		s.mu.Unlock()
		s.ioMu.Unlock()
		return v, true, nil
	}
	sp, ok := s.index[ident]
	if !ok {
		s.mu.Unlock()
		s.ioMu.Unlock()
		return nil, false, nil
	}
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
// caller found in the index while holding ioMu (still held): no cleaning
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

// consume retires ident's index entry if it is still sp, reporting
// whether it was and whether retiring it emptied a sealed segment.
func (s *Store) consume(ident id, sp span) (consumed, emptied bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, still := s.index[ident]; !still || cur != sp {
		return false, false
	}
	delete(s.index, ident)
	s.marks.Remove(ident)
	s.diskHits.Inc()
	return true, s.retireLocked(sp)
}

// ForEachLive invokes fn for every live aggregate with its key and
// window, in (key, window) order, without consuming anything: buffered
// aggregates are served from memory and flushed ones are read from their
// segments in place, each block once. Used by job rescaling to re-route
// committed state into a new worker set.
func (s *Store) ForEachLive(fn func(key []byte, w window.Window, agg []byte) error) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	type liveAgg struct {
		ident id
		agg   []byte
	}
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	live := make([]liveAgg, 0, len(s.buf)+len(s.index))
	for ident, v := range s.buf {
		live = append(live, liveAgg{ident: ident, agg: v})
	}
	// A buffered identity is never also indexed (Put retires the entry).
	spilled := make([]spilledAgg, 0, len(s.index))
	for ident, sp := range s.index {
		spilled = append(spilled, spilledAgg{ident, sp})
	}
	s.mu.Unlock()
	err := s.readSpilledLocked(spilled, func(ident id, agg []byte) error {
		live = append(live, liveAgg{ident: ident, agg: agg})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].ident.key != live[j].ident.key {
			return live[i].ident.key < live[j].ident.key
		}
		return live[i].ident.w.Before(live[j].ident.w)
	})
	for _, la := range live {
		if err := fn([]byte(la.ident.key), la.ident.w, la.agg); err != nil {
			return err
		}
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

// encodeEntry appends the rmw.dlt record body of (ident, agg): key,
// absolute window, aggregate. decodeEntry reads it back.
func encodeEntry(dst []byte, ident id, agg []byte) []byte {
	dst = binio.PutBytes(dst, []byte(ident.key))
	dst = ident.w.AppendTo(dst)
	return binio.PutBytes(dst, agg)
}

func decodeEntry(b []byte) (key []byte, w window.Window, agg []byte, err error) {
	key, n, err := binio.Bytes(b)
	if err != nil {
		return nil, window.Window{}, nil, err
	}
	b = b[n:]
	w, n, err = window.Decode(b)
	if err != nil {
		return nil, window.Window{}, nil, err
	}
	b = b[n:]
	agg, _, err = binio.Bytes(b)
	return key, w, agg, err
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
// function of the buffer's contents alone.
func endsLater(a, b id) bool { return byLifetime(a, b) > 0 }

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

// detachLocked removes from the buffer, and returns, the batch a flush
// writes and its identities in lifetime order; caller holds mu. A drain
// takes everything. An eviction takes the quarter of the buffered
// identities whose windows end last — unless what that leaves is still
// over the cap (a few large aggregates among many small ones), and then it
// too takes everything, so a flush always brings the buffer back under
// WriteBufferBytes.
func (s *Store) detachLocked(all bool) (map[id][]byte, []id) {
	ids := s.evictIDs[:0]
	for ident := range s.buf {
		ids = append(ids, ident)
	}
	s.evictIDs = ids
	if !all {
		k := (len(ids) + evictDivisor - 1) / evictDivisor
		window.SelectLast(ids, k, endsLater)
		var bytes int64
		for _, ident := range ids[:k] {
			bytes += int64(len(s.buf[ident]))
		}
		if !s.overCap(s.bufBytes-bytes, len(ids)-k) {
			batch := make(map[id][]byte, k)
			for _, ident := range ids[:k] {
				batch[ident] = s.buf[ident]
				delete(s.buf, ident)
			}
			s.bufBytes -= bytes
			slices.SortFunc(ids[:k], byLifetime)
			return batch, ids[:k]
		}
	}
	batch := s.buf
	s.buf = make(map[id][]byte)
	s.bufBytes = 0
	slices.SortFunc(ids, byLifetime)
	return batch, ids
}

// flushLocked spills buffered aggregates into the head segment and
// indexes them: all of them for a drain (Flush, Sync), the quarter that
// ends last for the eviction a Put starts on finding the buffer full — and
// nothing if an eviction queued behind another finds the buffer no longer
// full. Caller holds ioMu. The batch is detached under mu, written with
// only ioMu held (so ingestion proceeds), and installed under mu again; an
// id re-put while its batch was in flight keeps the newer buffered value
// and the flushed copy is born dead.
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
	idle := len(s.buf) == 0 || (!all && !s.bufferFullLocked())
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
	batch, victims := s.detachLocked(all)
	s.flushing = batch
	s.mu.Unlock()

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
		placeBlock(written[installed:installed+entries], off, head.ID, n, block, body)
		installed += entries
		bytes += int64(n)
		return nil
	}}
	var werr error
	vals := make([][]byte, 1)
	for i, ident := range victims {
		vals[0] = batch[ident]
		off, n, err := bw.Add(s.seq, ident.key, ident.w, vals)
		if err != nil {
			werr = err
			break
		}
		written[i] = placed{ident, span{entry: uint32(off), share: uint32(n)}}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	written = written[:installed]
	s.flushedBytes.Add(bytes)
	s.flushedAggs.Add(int64(installed))

	s.mu.Lock()
	s.flushing = nil
	for _, wr := range written {
		delete(batch, wr.ident)
		if _, newer := s.buf[wr.ident]; newer {
			continue // born dead: in the segment's size, not in its live count
		}
		s.index[wr.ident] = wr.sp
		head.Live += int64(wr.sp.share)
	}
	if werr != nil && !DisableFlushReattach {
		// Flush failure is atomic: aggregates the log did not accept go
		// back into the live buffer (unless a newer value superseded
		// them while the batch was in flight), so no acked Put is lost.
		for ident, v := range batch {
			if _, newer := s.buf[ident]; newer {
				continue
			}
			s.buf[ident] = v
			s.bufBytes += int64(len(v))
		}
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
// has just appended at off in segment seg, n bytes framed, body of them
// entries: until then each span held the entry's offset among the block's
// entries and its encoded size. The first entry's share takes the header
// and frame.
func placeBlock(ps []placed, off int64, seg uint32, n int, block []byte, body int) {
	hdr := uint32(len(block) - body)
	for i := range ps {
		sp := &ps[i].sp
		sp.off, sp.seg, sp.n = off, seg, uint32(n)
		sp.entry += hdr
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
// survivor's blocks; then the index is repointed. Index entries retired by
// concurrent Puts or Gets while the pass ran are not repointed; their
// copies are born dead in the survivor. Caller holds ioMu.
func (s *Store) cleanLocked() error {
	var moved moves
	var surv *segment
	var appended int64
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		off, n, err := surv.Log.Append(block)
		if err != nil {
			return err
		}
		placeBlock(moved.to[len(moved.to)-entries:], off, surv.ID, n, block, body)
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
			if cur, ok := s.index[to.ident]; ok && cur == from {
				s.index[to.ident] = to.sp
				s.segs.Get(from.seg).Live -= int64(from.share)
				sv.Live += int64(to.sp.share)
			}
		}
		return appended, nil
	})
}

// errScanDone, returned by a block callback, ends a victim's scan.
var errScanDone = errors.New("rmw: segment scan done")

// copyLiveLocked scans victim v's blocks once and hands every entry the
// index still points at to bw, recording the moves; caller holds ioMu. The
// scan stops once it has seen all of v's live bytes.
func (s *Store) copyLiveLocked(v *segment, want int64, bw *logfile.BlockWriter, moved *moves) error {
	sc, err := v.Log.Scanner(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	var found int64
	for off := int64(0); sc.Scan(); off = sc.Offset() {
		n := sc.Offset() - off
		frame := int(n) - len(sc.Record()) // counted by the first entry
		_, err := logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
			at := span{off: off, seg: v.ID, n: uint32(n), entry: uint32(e.Off), share: uint32(e.Size + frame)}
			frame = 0
			ident := id{key: string(e.Key), w: e.Window}
			s.mu.Lock()
			cur, ok := s.index[ident]
			s.mu.Unlock()
			if !ok || cur != at {
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
		switch {
		case err == errScanDone:
			return sc.Err() // nil; accounts the bytes read
		case errors.As(err, new(*logfile.BlockError)):
			return fmt.Errorf("rmw: clean %s: block at %d: %w", v.Log.Path(), off, err)
		case err != nil:
			return err
		}
	}
	return sc.Err()
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

// CheckpointRebases returns the number of cuts written as the base of a
// new stream although their parent could have been extended, because the
// delta would have held more records than the live state.
func (s *Store) CheckpointRebases() int64 { return s.rebases.Load() }

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
	n := len(s.buf) + len(s.index)
	for ident := range s.flushing {
		if _, ok := s.buf[ident]; ok {
			continue
		}
		if _, ok := s.index[ident]; ok {
			continue
		}
		n++
	}
	return n
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
