// Package rmw implements FlowKV's Read-Modify-Write store (paper §4.3),
// used for window operations with associative and commutative aggregate
// functions, which keep one intermediate aggregate per (key, window)
// instead of a tuple list.
//
// Because the aggregate is read back on every tuple arrival, read-time
// prediction is useless; the store is a plain unsorted hash store — an
// in-memory hash write buffer, an in-memory hash index mapping
// (key, window) to on-disk locations, and a single append-only log file.
// Compaction rewrites live entries into a fresh log when space
// amplification exceeds the MSA threshold.
//
// # Concurrency
//
// A Store instance is safe for concurrent use. Two locks split the state:
//
//   - mu guards the in-memory maps (buf, index, dead-byte accounting and
//     the in-flight flush marker). Every fast-path operation — Put, and
//     Get served from the buffer — takes only mu, so ingestion never
//     waits for disk.
//   - ioMu serializes everything that touches the log file: flushes,
//     compaction, indexed reads, checkpoints. mu is never held across
//     I/O; a flush detaches the buffer under mu, writes the batch with
//     only ioMu held, then installs the index entries under mu again.
//
// The lock order is ioMu before mu; mu is never held while acquiring
// ioMu. Operations on an identity that is part of an in-flight flush
// batch divert to the slow path (which waits on ioMu) so a fetch-&-remove
// can never miss values that are mid-flight between buffer and log.
package rmw

import (
	"errors"
	"fmt"
	"sort"
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
	// Dir is the directory holding the instance's log files.
	Dir string
	// WriteBufferBytes caps the in-memory write buffer; exceeding it
	// flushes every buffered aggregate to the log. Default 32 MiB.
	WriteBufferBytes int64
	// MaxSpaceAmplification (MSA) triggers compaction when
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

type span struct {
	off int64
	n   int
}

// deltaMark records one identity's latest mutation since the last
// committed delta checkpoint.
type deltaMark struct {
	seq  uint64
	tomb bool
}

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
	dead     int64
	closed   bool
	// deltas tracks every identity mutated since the last committed
	// delta checkpoint: an upsert (Put) or a tombstone (fetch-&-remove).
	// CheckpointDelta persists exactly these marks on top of the parent
	// checkpoint; the seq lets its post-commit hook retire only marks
	// that were not re-dirtied while the checkpoint was being written.
	// lastCutID names the last committed delta cut — a delta extends its
	// parent only when the parent's recorded cut matches.
	deltas    map[id]deltaMark
	deltaSeq  uint64
	lastCutID uint64

	// ioMu serializes log I/O: flush, compaction, indexed reads,
	// checkpoint/restore. Never acquired while holding mu.
	ioMu sync.Mutex
	log  *logfile.Log
	gen  int

	// syncMu admits one split sync at a time; held around (not under)
	// ioMu, so the fsync runs with ioMu released.
	syncMu sync.Mutex

	compactions metrics.Counter
	puts        metrics.Counter
	gets        metrics.Counter
}

// Open creates an RMW store instance rooted at opts.Dir.
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	s := &Store{
		opts:   opts,
		dir:    dir,
		bd:     opts.Breakdown,
		buf:    make(map[id][]byte),
		index:  make(map[id]span),
		deltas: make(map[id]deltaMark),
	}
	if err := s.openGen(0); err != nil {
		return nil, err
	}
	return s, nil
}

// markDeltaLocked records a mutation of ident for the next delta
// checkpoint; the caller holds mu.
func (s *Store) markDeltaLocked(ident id, tomb bool) {
	s.deltaSeq++
	s.deltas[ident] = deltaMark{seq: s.deltaSeq, tomb: tomb}
}

// openGen swaps in a fresh log generation; caller holds ioMu (or is Open).
func (s *Store) openGen(gen int) error {
	l, err := s.dir.Create(fmt.Sprintf("rmw-%06d.log", gen))
	if err != nil {
		return err
	}
	s.log, s.gen = l, gen
	return nil
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
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if old, ok := s.buf[ident]; ok {
		s.bufBytes -= int64(len(old))
	}
	// A newer aggregate makes any flushed copy dead; the index entry is
	// retired immediately, the bytes at compaction.
	if sp, ok := s.index[ident]; ok {
		s.dead += int64(sp.n)
		delete(s.index, ident)
	}
	ac := make([]byte, len(agg))
	copy(ac, agg)
	s.buf[ident] = ac
	s.bufBytes += int64(len(ac))
	s.markDeltaLocked(ident, false)
	need := s.bufBytes+int64(len(s.buf))*48 > s.opts.WriteBufferBytes
	s.mu.Unlock()
	s.puts.Inc()
	if !need {
		return nil
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.maybeCompactLocked()
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

func (s *Store) get(key []byte, w window.Window) ([]byte, bool, error) {
	ident := id{key: string(key), w: w}

	// Fast path under mu alone: possible whenever the identity has no
	// copy in flight to disk — either a pure buffer hit (put invariant:
	// a buffered id is never also indexed) or a definitive miss.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if _, inflight := s.flushing[ident]; !inflight {
		if v, ok := s.buf[ident]; ok {
			s.bufBytes -= int64(len(v))
			delete(s.buf, ident)
			s.markDeltaLocked(ident, true)
			s.mu.Unlock()
			s.gets.Inc()
			return v, true, nil
		}
		if _, ok := s.index[ident]; !ok {
			s.mu.Unlock()
			return nil, false, nil
		}
	}
	s.mu.Unlock()

	// Slow path: wait for any in-flight flush, then read from the log.
	s.ioMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.ioMu.Unlock()
		return nil, false, ErrClosed
	}
	if v, ok := s.buf[ident]; ok {
		s.bufBytes -= int64(len(v))
		delete(s.buf, ident)
		s.markDeltaLocked(ident, true)
		s.mu.Unlock()
		s.ioMu.Unlock()
		s.gets.Inc()
		return v, true, nil
	}
	sp, ok := s.index[ident]
	s.mu.Unlock()
	if !ok {
		s.ioMu.Unlock()
		return nil, false, nil
	}
	lg := s.log
	var payload []byte
	var err error
	healthy := lg.Poisoned() == nil
	if healthy {
		healthy = lg.Flush() == nil
	}
	if healthy {
		// The span's bytes are on the fd now; drop ioMu before the pread
		// so point reads overlap fsyncs and flushes from other workers.
		s.ioMu.Unlock()
		payload, err = lg.ReadRecordAtRaw(sp.off, sp.n)
		if err != nil {
			// A compaction (or recovery reopen) may have swapped the
			// generation and closed lg's fd while we read without the
			// lock; retry against current state under ioMu.
			return s.reread(ident)
		}
	} else {
		// Degraded: the stitched durable-prefix+tail read walks the
		// log's mutable state, so it stays under ioMu.
		payload, err = lg.ReadRecordAt(sp.off, sp.n)
		s.ioMu.Unlock()
		if err != nil {
			return nil, false, err
		}
	}
	_, _, v, err := decodeEntry(payload)
	if err != nil {
		return nil, false, err
	}
	s.finishGet(ident, sp)
	return v, true, nil
}

// reread retries a point read that raced with a generation swap: under
// ioMu the index span is authoritative for the current log.
func (s *Store) reread(ident id) ([]byte, bool, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if v, ok := s.buf[ident]; ok {
		s.bufBytes -= int64(len(v))
		delete(s.buf, ident)
		s.markDeltaLocked(ident, true)
		s.mu.Unlock()
		s.gets.Inc()
		return v, true, nil
	}
	sp, ok := s.index[ident]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	payload, err := s.log.ReadRecordAt(sp.off, sp.n)
	if err != nil {
		return nil, false, err
	}
	_, _, v, err := decodeEntry(payload)
	if err != nil {
		return nil, false, err
	}
	s.finishGet(ident, sp)
	return v, true, nil
}

// finishGet retires a consumed index entry, tolerating a concurrent Put
// that already retired it (and accounted its dead bytes) while the
// record was being read.
func (s *Store) finishGet(ident id, sp span) {
	s.mu.Lock()
	if cur, still := s.index[ident]; still && cur == sp {
		delete(s.index, ident)
		s.dead += int64(sp.n)
		s.markDeltaLocked(ident, true)
	}
	s.mu.Unlock()
	s.gets.Inc()
}

// ForEachLive invokes fn for every live aggregate with its key and
// window, in (key, window) order, without consuming anything: buffered
// aggregates are served from memory and flushed ones are point-read from
// the log in place. Used by job rescaling to re-route committed state
// into a new worker set.
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
	if s.closed {
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
			payload, err := s.log.ReadRecordAt(la.sp.off, la.sp.n)
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

// flushLocked spills every buffered aggregate to the log and indexes it.
// Caller holds ioMu. The buffer is detached under mu, written with only
// ioMu held (so ingestion proceeds), and installed under mu again; an id
// re-put while its batch was in flight keeps the newer buffered value and
// the flushed copy is born dead.
func (s *Store) flushLocked() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	batch := s.buf
	if len(batch) == 0 {
		s.mu.Unlock()
		return nil
	}
	s.buf = make(map[id][]byte)
	s.bufBytes = 0
	s.flushing = batch
	s.mu.Unlock()

	type wrec struct {
		ident id
		sp    span
	}
	written := make([]wrec, 0, len(batch))
	var payload []byte
	var werr error
	for ident, v := range batch {
		payload = encodeEntry(payload[:0], ident, v)
		off, n, err := s.log.Append(payload)
		if err != nil {
			werr = err
			break
		}
		written = append(written, wrec{ident, span{off: off, n: n}})
	}

	s.mu.Lock()
	s.flushing = nil
	for _, wr := range written {
		delete(batch, wr.ident)
		if _, newer := s.buf[wr.ident]; newer {
			s.dead += int64(wr.sp.n)
			continue
		}
		s.index[wr.ident] = wr.sp
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
	return werr
}

// spaceAmpLocked reports the log's space amplification; caller holds ioMu.
func (s *Store) spaceAmpLocked() float64 {
	total := s.log.Size()
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if total == 0 || total == dead {
		return 1.0
	}
	return float64(total) / float64(total-dead)
}

// maybeCompactLocked compacts when amplification exceeds MSA; caller
// holds ioMu.
func (s *Store) maybeCompactLocked() error {
	if s.spaceAmpLocked() <= s.opts.MaxSpaceAmplification {
		return nil
	}
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpCompact)
	}
	err := s.compactLocked()
	if stop != nil {
		stop()
	}
	if err == nil {
		s.compactions.Inc()
	}
	return err
}

// compactLocked rewrites all live (indexed) aggregates into a fresh log,
// as hash KV stores do (§4.3), and removes the old generation. Caller
// holds ioMu. The index is snapshotted under mu; entries retired by
// concurrent Puts or Gets while the rewrite ran are not re-installed, and
// their rewritten bytes are accounted dead in the new log.
func (s *Store) compactLocked() error {
	s.mu.Lock()
	snap := make(map[id]span, len(s.index))
	for ident, sp := range s.index {
		snap[ident] = sp
	}
	s.mu.Unlock()

	oldLog := s.log
	oldGen := s.gen
	if err := s.openGen(s.gen + 1); err != nil {
		s.log = oldLog
		s.gen = oldGen
		return err
	}
	abort := func() {
		// Revert to the old generation: the index still points into it,
		// so serving reads from the half-built new log would be wrong.
		bad := s.log
		s.log = oldLog
		s.gen = oldGen
		bad.Remove() // best effort; the fault may also block the unlink
	}
	newIndex := make(map[id]span, len(snap))
	for ident, sp := range snap {
		payload, err := oldLog.ReadRecordAt(sp.off, sp.n)
		if err != nil {
			abort()
			return err
		}
		off, n, err := s.log.Append(payload)
		if err != nil {
			abort()
			return err
		}
		newIndex[ident] = span{off: off, n: n}
	}

	s.mu.Lock()
	var newDead int64
	for ident, nsp := range newIndex {
		if cur, ok := s.index[ident]; ok && cur == snap[ident] {
			s.index[ident] = nsp
		} else {
			// Consumed or superseded mid-compaction: the copy just
			// written to the new log is already dead.
			newDead += int64(nsp.n)
		}
	}
	s.dead = newDead
	s.mu.Unlock()
	return oldLog.Remove()
}

// Flush spills all buffered data to disk (checkpoint support).
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.log.Flush()
}

// Sync flushes all buffered data and fsyncs the log, making every
// acknowledged Put durable. The fsync itself runs outside ioMu
// (logfile.SplitSync), so concurrent point reads and later flushes
// overlap it instead of queueing for its whole duration; syncMu keeps
// at most one fsync in flight, as the split protocol requires.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.ioMu.Lock()
	if err := s.flushLocked(); err != nil {
		s.ioMu.Unlock()
		return err
	}
	s.ioMu.Unlock()
	return logfile.SplitSync(&s.ioMu, func() *logfile.Log { return s.log })
}

// Poisoned returns the log's poisoning error, or nil when it is healthy.
func (s *Store) Poisoned() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.log.Poisoned()
}

// Recover reopens a poisoned log from its durable offset, rewriting the
// retained unsynced tail, so the write path works again after the
// underlying fault has cleared.
func (s *Store) Recover() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return logfile.RecoverAll([]*logfile.Log{s.log})
}

// Scrub verifies the live log's record frames against their checksums
// under the instance I/O lock, healing rot confined to the unsynced tail
// where the retained in-memory copy allows (see logfile.Log.Scrub). It
// returns the per-instance summary and the first unrepairable corruption.
func (s *Store) Scrub() (logfile.ScrubSummary, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return logfile.ScrubSummary{}, ErrClosed
	}
	return logfile.ScrubAll([]*logfile.Log{s.log})
}

// Compactions returns the number of compactions performed.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// SpaceAmplification returns the log's current space amplification.
func (s *Store) SpaceAmplification() float64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.spaceAmpLocked()
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
// appends still in its write-through buffer.
func (s *Store) DiskUsage() int64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.log.Size()
}

// Close closes the store's log file, leaving state on disk.
func (s *Store) Close() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.log.Close()
}

// Destroy closes the store and deletes its directory.
func (s *Store) Destroy() error {
	err := s.Close()
	if derr := s.dir.RemoveAll(); derr != nil && err == nil {
		err = derr
	}
	return err
}
