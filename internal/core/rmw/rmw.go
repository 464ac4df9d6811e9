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
// segment's records also share a lifetime and tend to die together.
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
// re-appends the records the index still points at to the survivor. The
// head is sealed behind every full-buffer eviction, so a sealed segment is
// never smaller than one eviction — a quarter of the buffer — and the
// instance holds at most about MSA·live/eviction + 2 files.
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
	"errors"
	"fmt"
	"sort"
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

// span locates one flushed aggregate: the segment holding it, the
// record's offset there and its framed length.
type span struct {
	off int64
	seg uint32
	n   uint32
}

// segment is one file of the log: logfile.Segments' lifecycle with a
// single log and no state of the store's own.
type segment = logfile.Segment[struct{}]

// segmentPrefix names the log's files, rmw-NNNNNN.log.
const segmentPrefix = "rmw"

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

	puts         metrics.Counter
	flushedBytes metrics.Counter // framed bytes flushes appended
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

// retireLocked accounts the record at sp dead and reports whether that
// emptied a sealed segment, which is then due a reap; caller holds mu
// and has removed the index entry.
func (s *Store) retireLocked(sp span) (emptied bool) {
	sg := s.segs.Get(sp.seg)
	sg.Live -= int64(sp.n)
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
	payload, err := lg.ReadRecordAtRaw(sp.off, int(sp.n))
	if err != nil {
		// The segment may have been dropped (or reopened by recovery) and
		// its fd closed while we read without the lock.
		return s.getFlushed(ident, false)
	}
	_, _, v, err := decodeEntry(payload)
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
	payload, err := s.segs.Get(sp.seg).Log.ReadRecordAt(sp.off, int(sp.n))
	if err != nil {
		return nil, err
	}
	_, _, v, err := decodeEntry(payload)
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
// aggregates are served from memory and flushed ones are point-read from
// their segments in place. Used by job rescaling to re-route committed
// state into a new worker set.
func (s *Store) ForEachLive(fn func(key []byte, w window.Window, agg []byte) error) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	type liveAgg struct {
		ident    id
		agg      []byte
		buffered bool
		sp       span
	}
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	live := make([]liveAgg, 0, len(s.buf)+len(s.index))
	for ident, v := range s.buf {
		live = append(live, liveAgg{ident: ident, agg: v, buffered: true})
	}
	for ident, sp := range s.index {
		if _, ok := s.buf[ident]; ok {
			continue // the buffer holds the newer value
		}
		live = append(live, liveAgg{ident: ident, sp: sp})
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool {
		if live[i].ident.key != live[j].ident.key {
			return live[i].ident.key < live[j].ident.key
		}
		return live[i].ident.w.Before(live[j].ident.w)
	})
	for _, la := range live {
		agg := la.agg
		if !la.buffered {
			payload, err := s.segs.Get(la.sp.seg).Log.ReadRecordAt(la.sp.off, int(la.sp.n))
			if err != nil {
				return err
			}
			_, _, v, err := decodeEntry(payload)
			if err != nil {
				return err
			}
			agg = v
		}
		if err := fn([]byte(la.ident.key), la.ident.w, agg); err != nil {
			return err
		}
	}
	return nil
}

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
func endsLater(a, b id) bool {
	if a.w.End != b.w.End {
		return a.w.End > b.w.End
	}
	if a.w.Start != b.w.Start {
		return a.w.Start > b.w.Start
	}
	return a.key > b.key
}

// detachLocked removes from the buffer, and returns, the batch a flush
// writes; caller holds mu. A drain takes everything. An eviction takes the
// quarter of the buffered identities whose windows end last — unless what
// that leaves is still over the cap (a few large aggregates among many
// small ones), and then it too takes everything, so a flush always brings
// the buffer back under WriteBufferBytes.
func (s *Store) detachLocked(all bool) map[id][]byte {
	if !all {
		ids := s.evictIDs[:0]
		for ident := range s.buf {
			ids = append(ids, ident)
		}
		s.evictIDs = ids
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
			return batch
		}
	}
	batch := s.buf
	s.buf = make(map[id][]byte)
	s.bufBytes = 0
	return batch
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
	batch := s.detachLocked(all)
	s.flushing = batch
	s.mu.Unlock()

	type wrec struct {
		ident id
		sp    span
	}
	written := make([]wrec, 0, len(batch))
	var payload []byte
	var werr error
	var bytes int64
	for ident, v := range batch {
		payload = encodeEntry(payload[:0], ident, v)
		off, n, err := head.Log.Append(payload)
		if err != nil {
			werr = err
			break
		}
		bytes += int64(n)
		written = append(written, wrec{ident, span{off: off, seg: head.ID, n: uint32(n)}})
	}
	s.flushedBytes.Add(bytes)

	s.mu.Lock()
	s.flushing = nil
	for _, wr := range written {
		delete(batch, wr.ident)
		if _, newer := s.buf[wr.ident]; newer {
			continue // born dead: in the segment's size, not in its live count
		}
		s.index[wr.ident] = wr.sp
		head.Live += int64(wr.sp.n)
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

// move is one record a cleaning pass re-appended.
type move struct {
	ident    id
	from, to span
}

// cleanLocked reaps the segments that emptied by themselves and, when
// amplification still exceeds MSA, runs one cleaning pass
// (logfile.Segments.Clean): each victim is read once, sequentially, and
// every record the index still points at is re-appended to the survivor;
// then the index is repointed. Index entries retired by concurrent Puts or
// Gets while the pass ran are not repointed; their copies are born dead in
// the survivor. Caller holds ioMu.
func (s *Store) cleanLocked() error {
	var moved []move
	return s.segs.Clean(func(v *segment, live int64, surv *segment) error {
		return s.copyLiveLocked(v, live, surv, &moved)
	}, func(surv *segment) (appended int64, _ error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, m := range moved {
			appended += int64(m.to.n)
			if cur, ok := s.index[m.ident]; ok && cur == m.from {
				s.index[m.ident] = m.to
				s.segs.Get(m.from.seg).Live -= int64(m.from.n)
				surv.Live += int64(m.to.n)
			}
		}
		return appended, nil
	})
}

// copyLiveLocked reads victim v once, sequentially, and re-appends every
// record the index still points at into surv, recording the moves; caller
// holds ioMu. The scan stops early once it has seen all of v's live bytes.
func (s *Store) copyLiveLocked(v *segment, want int64, surv *segment, moved *[]move) error {
	sc, err := v.Log.Scanner(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	var off, found int64
	for found < want && sc.Scan() {
		at := span{off: off, seg: v.ID, n: uint32(sc.Offset() - off)}
		off = sc.Offset()
		rec := sc.Record()
		key, w, _, err := decodeEntry(rec)
		if err != nil {
			return fmt.Errorf("rmw: clean %s: %w", v.Log.Path(), err)
		}
		s.mu.Lock()
		cur, ok := s.index[id{key: string(key), w: w}]
		s.mu.Unlock()
		if !ok || cur != at {
			continue
		}
		found += int64(at.n)
		noff, n, err := surv.Log.Append(rec)
		if err != nil {
			return err
		}
		*moved = append(*moved, move{
			ident: id{key: string(key), w: w},
			from:  at,
			to:    span{off: noff, seg: surv.ID, n: uint32(n)},
		})
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
