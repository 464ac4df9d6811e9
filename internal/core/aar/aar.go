// Package aar implements FlowKV's Append and Aligned Read store (paper
// §4.1), used for window operations whose aggregate function is holistic
// (Append) and whose window function triggers all keys simultaneously
// (fixed, sliding and global windows).
//
// The store exploits alignment with coarse-grained data organization: the
// in-memory write buffer hashes tuples by *window boundary* rather than by
// key, and the on-disk layout is one log file per window. Because every
// tuple in a log file is read and dropped at the same moment (the window's
// trigger), reads are a sequential scan of one file and cleanup is a
// single unlink — no per-key search and no compaction at all.
//
// Reads use gradual state loading: GetWindow returns one bounded partition
// per call so only one non-aggregated partition resides in memory.
//
// # Concurrency
//
// A Store instance is safe for concurrent use. Appends take only mu (the
// write-buffer lock); everything that touches files — flushes, window
// scans, drops, checkpoints — serializes on ioMu, with the buffer
// detached under mu and written with only ioMu held, so ingestion never
// stalls behind disk. The lock order is ioMu before mu; mu is never held
// across I/O or while acquiring ioMu.
package aar

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
var ErrClosed = errors.New("aar: store closed")

// DisableFlushReattach, when set, restores the historical behaviour of
// dropping the detached write buffer when a flush fails. It exists only
// so the error-injection battery can demonstrate that the re-attach is
// load-bearing; production code must never set it.
var DisableFlushReattach bool

// Options configures an AAR store instance.
type Options struct {
	// Dir is the directory holding the instance's per-window log files.
	Dir string
	// WriteBufferBytes caps the in-memory write buffer; exceeding it
	// flushes all buckets to their per-window logs. Default 32 MiB.
	WriteBufferBytes int64
	// LoadPartitionBytes bounds the size of each partition returned by
	// GetWindow (gradual state loading). Default 4 MiB.
	LoadPartitionBytes int64
	// FlushChunkBytes bounds the size of each on-disk record written at
	// flush; larger chunks amortize framing. Default 64 KiB.
	FlushChunkBytes int64
	// FineGrained switches the write buffer and flush format to per-key
	// organization (one record per key per flush), the naive layout the
	// paper's coarse-grained design replaces. Ablation only.
	FineGrained bool
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
	if o.LoadPartitionBytes <= 0 {
		o.LoadPartitionBytes = 4 << 20
	}
	if o.FlushChunkBytes <= 0 {
		o.FlushChunkBytes = 64 << 10
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
}

// KeyValues is one key with its appended values, the element type of the
// iterable returned by GetWindow.
type KeyValues struct {
	Key    []byte
	Values [][]byte
}

type kvPair struct {
	k, v []byte
}

// bucket accumulates one window's tuples in arrival order.
type bucket struct {
	entries []kvPair
	bytes   int64
}

type readState struct {
	log *logfile.Log
	sc  *logfile.Scanner
	// off is the absolute offset of the first record not yet served in a
	// returned partition. On a scan error the scanner is dropped and
	// recreated here, so a transient read fault is retryable without
	// duplicating or skipping records.
	off int64
	// mem holds entries that could not be spilled to the log (degraded
	// mode: the flush on first read failed); they are served after the
	// on-disk records so no acked append is lost.
	mem []kvPair
}

// Store is a single AAR store instance, safe for concurrent use.
type Store struct {
	opts Options
	dir  *logfile.Dir
	bd   *metrics.Breakdown

	// mu guards the write buffer; appends take only this lock.
	mu       sync.Mutex
	buf      map[window.Window]*bucket
	bufBytes int64
	closed   bool

	// ioMu serializes file state: flushes, scans, drops, checkpoints.
	// Never acquired while holding mu.
	ioMu  sync.Mutex
	files map[window.Window]*logfile.Log
	reads map[window.Window]*readState
	// epochs gives each per-window log file a random identity, recorded
	// in delta-checkpoint SEGMENTS manifests. A later delta may reuse a
	// parent checkpoint's segments for a window only while the live
	// file's epoch still matches: drop-then-recreate of the same window
	// changes the epoch and forces a full copy of that file.
	epochs map[window.Window]uint64

	// syncMu admits one split sync at a time; held around (not under)
	// ioMu so the fsyncs run with ioMu released.
	syncMu sync.Mutex

	// Stats counted for the evaluation harness.
	appends  metrics.Counter
	flushes  metrics.Counter
	tuplesIn metrics.Counter
}

// Open creates an AAR store instance rooted at opts.Dir.
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	dir.SetPolicy(opts.Policy)
	return &Store{
		opts:   opts,
		dir:    dir,
		bd:     opts.Breakdown,
		buf:    make(map[window.Window]*bucket),
		files:  make(map[window.Window]*logfile.Log),
		reads:  make(map[window.Window]*readState),
		epochs: make(map[window.Window]uint64),
	}, nil
}

// Append adds the KV tuple to window w (paper API: Append(K, V, W)). The
// key and value are copied; callers may reuse their buffers.
func (s *Store) Append(key, value []byte, w window.Window) error {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpWrite)
	}
	err := s.append(key, value, w)
	if stop != nil {
		stop()
	}
	return err
}

func (s *Store) append(key, value []byte, w window.Window) error {
	kc := make([]byte, len(key))
	copy(kc, key)
	vc := make([]byte, len(value))
	copy(vc, value)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	b := s.buf[w]
	if b == nil {
		b = &bucket{}
		s.buf[w] = b
	}
	b.entries = append(b.entries, kvPair{kc, vc})
	sz := int64(len(key) + len(value) + 32)
	b.bytes += sz
	s.bufBytes += sz
	need := s.bufBytes > s.opts.WriteBufferBytes
	s.mu.Unlock()
	s.appends.Inc()
	s.tuplesIn.Inc()
	if !need {
		return nil
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.flushAllLocked()
}

// flushAllLocked detaches the whole write buffer under mu and spills
// every bucket to its window's log file. Caller holds ioMu; ingestion
// into the fresh buffer proceeds while the batch is written. Flush
// failure is atomic with respect to acked appends: entries the log did
// not accept are re-attached to the live buffer under mu, so an error
// here degrades the store without losing acknowledged writes.
func (s *Store) flushAllLocked() error {
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
	s.buf = make(map[window.Window]*bucket)
	s.bufBytes = 0
	s.mu.Unlock()
	for w, b := range batch {
		remaining, err := s.flushBucket(w, b)
		if err != nil {
			if !DisableFlushReattach {
				b.entries = remaining
				s.reattach(batch)
			}
			return err
		}
		delete(batch, w)
	}
	s.flushes.Inc()
	return nil
}

// reattach returns the unflushed entries of a failed batch to the live
// write buffer, prepended so arrival order is preserved relative to
// appends that raced in since the detach.
func (s *Store) reattach(batch map[window.Window]*bucket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w, b := range batch {
		if len(b.entries) == 0 {
			continue
		}
		var sz int64
		for _, e := range b.entries {
			sz += int64(len(e.k) + len(e.v) + 32)
		}
		cur := s.buf[w]
		if cur == nil {
			s.buf[w] = &bucket{entries: b.entries, bytes: sz}
		} else {
			cur.entries = append(b.entries, cur.entries...)
			cur.bytes += sz
		}
		s.bufBytes += sz
	}
}

// flushBucket writes one window's bucket; caller holds ioMu. On error it
// returns the entries the log did not accept (entries already appended
// live in the log's retained tail and survive recovery).
func (s *Store) flushBucket(w window.Window, b *bucket) ([]kvPair, error) {
	if len(b.entries) == 0 {
		return nil, nil
	}
	l := s.files[w]
	if l == nil {
		var err error
		l, err = s.dir.Create(windowFileName(w))
		if err != nil {
			return b.entries, err
		}
		s.files[w] = l
		s.epochs[w] = ckpt.Rand64()
	}
	if s.opts.FineGrained {
		return flushFine(l, b.entries)
	}
	return flushCoarse(l, b.entries, s.opts.FlushChunkBytes)
}

// flushCoarse writes the bucket as chunked multi-tuple records — the
// paper's coarse-grained layout: data organized by window, not by key.
// On error it returns the entries not accepted by the log.
func flushCoarse(l *logfile.Log, entries []kvPair, chunkBytes int64) ([]kvPair, error) {
	payload := make([]byte, 0, chunkBytes+1024)
	count := 0
	done := 0
	var body []byte
	emit := func() error {
		if count == 0 {
			return nil
		}
		payload = binio.PutUvarint(payload[:0], uint64(count))
		payload = append(payload, body...)
		_, _, err := l.Append(payload)
		if err == nil {
			done += count
		}
		body = body[:0]
		count = 0
		return err
	}
	for _, e := range entries {
		body = binio.PutBytes(body, e.k)
		body = binio.PutBytes(body, e.v)
		count++
		if int64(len(body)) >= chunkBytes {
			if err := emit(); err != nil {
				return entries[done:], err
			}
		}
	}
	if err := emit(); err != nil {
		return entries[done:], err
	}
	return nil, nil
}

// flushFine writes one record per key (grouping the bucket by key first),
// the naive fine-grained layout used by the ablation in §4.1. On error
// it returns the entries of the groups not accepted by the log (group
// order, which loses the original arrival interleaving — acceptable for
// an ablation-only layout).
func flushFine(l *logfile.Log, entries []kvPair) ([]kvPair, error) {
	groups := make(map[string][][]byte)
	var order []string
	for _, e := range entries {
		k := string(e.k)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e.v)
	}
	var payload []byte
	for gi, k := range order {
		vs := groups[k]
		// One single-key record per value group: count=len(vs) entries of
		// the same key, preserving the record wire format.
		payload = binio.PutUvarint(payload[:0], uint64(len(vs)))
		for _, v := range vs {
			payload = binio.PutBytes(payload, []byte(k))
			payload = binio.PutBytes(payload, v)
		}
		if _, _, err := l.Append(payload); err != nil {
			var rem []kvPair
			for _, k2 := range order[gi:] {
				for _, v := range groups[k2] {
					rem = append(rem, kvPair{[]byte(k2), v})
				}
			}
			return rem, err
		}
	}
	return nil, nil
}

// GetWindow returns the next partition of window w's state, grouped by
// key, or nil when the window is exhausted — at which point its on-disk
// log has been unlinked (paper API: GetWindow(W), fetch & remove). The
// same key may appear in multiple partitions; the consumer merges.
// Concurrent GetWindow calls for the same window serialize on ioMu and
// each receive a distinct partition.
func (s *Store) GetWindow(w window.Window) ([]KeyValues, error) {
	var stop func()
	if s.bd != nil {
		stop = s.bd.Start(metrics.OpRead)
	}
	part, err := s.getWindow(w)
	if stop != nil {
		stop()
	}
	return part, err
}

func (s *Store) getWindow(w window.Window) ([]KeyValues, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	rs := s.reads[w]
	if rs == nil {
		// First call for this window: spill any buffered tuples so the
		// read is a single sequential file scan.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		b := s.buf[w]
		if b != nil {
			s.bufBytes -= b.bytes
			delete(s.buf, w)
		}
		s.mu.Unlock()
		var mem []kvPair
		if b != nil {
			// A flush failure here must not fail the read: the store is
			// degraded, but the unspilled entries are still in hand —
			// serve them from memory after the on-disk records.
			if remaining, err := s.flushBucket(w, b); err != nil {
				mem = remaining
			}
		}
		l := s.files[w]
		if l == nil && len(mem) == 0 {
			return nil, nil // window has no state
		}
		rs = &readState{log: l, mem: mem}
		s.reads[w] = rs
	}
	if rs.sc == nil && rs.log != nil {
		sc, err := rs.log.Scanner(rs.off)
		if err != nil {
			return nil, err
		}
		rs.sc = sc
	}

	groups := make(map[string]int)
	var part []KeyValues
	var read int64
	for read < s.opts.LoadPartitionBytes && rs.sc != nil && rs.sc.Scan() {
		rec := rs.sc.Record()
		read += int64(len(rec))
		n, used, err := binio.Uvarint(rec)
		if err != nil {
			return nil, fmt.Errorf("aar: window %v: %w", w, err)
		}
		rec = rec[used:]
		for i := uint64(0); i < n; i++ {
			k, kn, err := binio.Bytes(rec)
			if err != nil {
				return nil, fmt.Errorf("aar: window %v: %w", w, err)
			}
			rec = rec[kn:]
			v, vn, err := binio.Bytes(rec)
			if err != nil {
				return nil, fmt.Errorf("aar: window %v: %w", w, err)
			}
			rec = rec[vn:]
			vc := make([]byte, len(v))
			copy(vc, v)
			idx, seen := groups[string(k)]
			if !seen {
				kc := make([]byte, len(k))
				copy(kc, k)
				part = append(part, KeyValues{Key: kc})
				idx = len(part) - 1
				groups[string(k)] = idx
			}
			part[idx].Values = append(part[idx].Values, vc)
		}
	}
	if rs.sc != nil {
		if err := rs.sc.Err(); err != nil {
			// Drop the broken scanner; a retry recreates it at rs.off, the
			// first record of this (discarded) partition attempt.
			rs.sc = nil
			return nil, err
		}
		rs.off = rs.sc.Offset()
	}
	// Serve entries the degraded-mode flush kept in memory after the
	// on-disk records are exhausted.
	for read < s.opts.LoadPartitionBytes && len(rs.mem) > 0 {
		e := rs.mem[0]
		rs.mem = rs.mem[1:]
		read += int64(len(e.k) + len(e.v))
		idx, seen := groups[string(e.k)]
		if !seen {
			part = append(part, KeyValues{Key: e.k})
			idx = len(part) - 1
			groups[string(e.k)] = idx
		}
		part[idx].Values = append(part[idx].Values, e.v)
	}
	if len(part) == 0 {
		// Exhausted: clean the per-window log from disk (step ④).
		delete(s.reads, w)
		delete(s.files, w)
		delete(s.epochs, w)
		if rs.log == nil {
			return nil, nil
		}
		if err := rs.log.Remove(); err != nil && !errors.Is(err, logfile.ErrPoisoned) {
			// A poisoned log's close error is expected in degraded mode;
			// the unlink still happened and the data was fully served.
			return nil, err
		}
		return nil, nil
	}
	return part, nil
}

// DropWindow discards all state of window w without reading it, used when
// the SPE expires a window unseen (e.g. allowed-lateness cleanup).
func (s *Store) DropWindow(w window.Window) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if b := s.buf[w]; b != nil {
		s.bufBytes -= b.bytes
		delete(s.buf, w)
	}
	s.mu.Unlock()
	delete(s.reads, w)
	delete(s.epochs, w)
	if l := s.files[w]; l != nil {
		delete(s.files, w)
		return l.Remove()
	}
	return nil
}

// Windows returns every window with live state (buffered or on disk), in
// window order. Windows mid-drain (a GetWindow sequence that has not
// exhausted yet) are included until their log is unlinked.
func (s *Store) Windows() []window.Window {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	set := make(map[window.Window]struct{}, len(s.buf)+len(s.files))
	for w := range s.buf {
		set[w] = struct{}{}
	}
	s.mu.Unlock()
	for w := range s.files {
		set[w] = struct{}{}
	}
	out := make([]window.Window, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// ReadWindowFiltered returns window w's state restricted to the keys the
// own predicate accepts (nil accepts every key), grouped by key, without
// consuming anything: the log stays on disk and buffered entries stay
// buffered, so several callers can each read their own key range and the
// window can be dropped wholesale later. It must not overlap a
// destructive GetWindow drain of the same window.
func (s *Store) ReadWindowFiltered(w window.Window, own func(key []byte) bool) ([]KeyValues, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if s.reads[w] != nil {
		return nil, fmt.Errorf("aar: window %v: filtered read during destructive drain", w)
	}
	// Snapshot the buffered entries under mu. Flushes need ioMu, so the
	// bucket cannot move to disk while we scan: nothing is seen twice.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var buffered []kvPair
	if b := s.buf[w]; b != nil {
		buffered = append(buffered, b.entries...)
	}
	s.mu.Unlock()

	groups := make(map[string]int)
	var out []KeyValues
	add := func(k, v []byte) {
		if own != nil && !own(k) {
			return
		}
		idx, seen := groups[string(k)]
		if !seen {
			kc := make([]byte, len(k))
			copy(kc, k)
			out = append(out, KeyValues{Key: kc})
			idx = len(out) - 1
			groups[string(k)] = idx
		}
		vc := make([]byte, len(v))
		copy(vc, v)
		out[idx].Values = append(out[idx].Values, vc)
	}
	if l := s.files[w]; l != nil {
		sc, err := l.Scanner(0)
		if err != nil {
			return nil, err
		}
		for sc.Scan() {
			rec := sc.Record()
			n, used, err := binio.Uvarint(rec)
			if err != nil {
				return nil, fmt.Errorf("aar: window %v: %w", w, err)
			}
			rec = rec[used:]
			for i := uint64(0); i < n; i++ {
				k, kn, err := binio.Bytes(rec)
				if err != nil {
					return nil, fmt.Errorf("aar: window %v: %w", w, err)
				}
				rec = rec[kn:]
				v, vn, err := binio.Bytes(rec)
				if err != nil {
					return nil, fmt.Errorf("aar: window %v: %w", w, err)
				}
				rec = rec[vn:]
				add(k, v)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	for _, e := range buffered {
		add(e.k, e.v)
	}
	return out, nil
}

// BufferedBytes returns the current in-memory write buffer size.
func (s *Store) BufferedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufBytes
}

// LiveWindows returns the number of windows with buffered or on-disk state.
func (s *Store) LiveWindows() int {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[window.Window]struct{}, len(s.buf)+len(s.files))
	for w := range s.buf {
		live[w] = struct{}{}
	}
	for w := range s.files {
		live[w] = struct{}{}
	}
	return len(live)
}

// Appends returns the number of Append calls served.
func (s *Store) Appends() int64 { return s.appends.Load() }

// Flushes returns the number of full write-buffer flushes performed.
func (s *Store) Flushes() int64 { return s.flushes.Load() }

// DiskUsage returns the logical bytes of the instance's per-window logs,
// including appends still in their write-through buffers.
func (s *Store) DiskUsage() int64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var total int64
	for _, l := range s.files {
		total += l.Size()
	}
	return total
}

// Flush spills all buffered data to disk (checkpoint support, §8).
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushAllLocked(); err != nil {
		return err
	}
	for _, l := range s.files {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes all buffered data and fsyncs every per-window log, making
// every acknowledged Append durable. Each fsync runs outside ioMu
// (logfile.SplitSync), so window drains and later flushes overlap the
// syncs instead of queueing behind them; syncMu keeps at most one split
// sync in flight per log, as the protocol requires. A window consumed
// at any point — before its turn, or while its fsync is in flight —
// leaves nothing to make durable.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.ioMu.Lock()
	if err := s.flushAllLocked(); err != nil {
		s.ioMu.Unlock()
		return err
	}
	wins := make([]window.Window, 0, len(s.files))
	for w := range s.files {
		wins = append(wins, w)
	}
	s.ioMu.Unlock()
	for _, w := range wins {
		if err := logfile.SplitSync(&s.ioMu, func() *logfile.Log { return s.files[w] }); err != nil {
			return err
		}
	}
	return nil
}

// liveLogs returns every open per-window log; caller holds ioMu.
func (s *Store) liveLogs() []*logfile.Log {
	logs := make([]*logfile.Log, 0, len(s.files))
	for _, l := range s.files {
		logs = append(logs, l)
	}
	return logs
}

// Poisoned returns the first poisoning error among the instance's open
// window logs, or nil when every log is healthy.
func (s *Store) Poisoned() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return logfile.FirstPoisoned(s.liveLogs())
}

// Recover reopens every poisoned per-window log from its durable offset,
// rewriting the retained unsynced tail, so the write path works again
// after the underlying fault has cleared. In-progress window scans are
// not preserved across a Recover.
func (s *Store) Recover() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	for w, rs := range s.reads {
		if l := s.files[w]; l != nil && l.Poisoned() != nil {
			rs.sc = nil // the scanner holds the stale fd; recreate at rs.off
		}
	}
	return logfile.RecoverAll(s.liveLogs())
}

// Scrub verifies every live window log's record frames against their
// checksums under the instance I/O lock, healing rot confined to the
// unsynced tail where the retained in-memory copy allows (see
// logfile.Log.Scrub). It returns the per-instance summary and the first
// unrepairable corruption.
func (s *Store) Scrub() (logfile.ScrubSummary, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return logfile.ScrubSummary{}, ErrClosed
	}
	return logfile.ScrubAll(s.liveLogs())
}

// Close closes all open log files, leaving state on disk.
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
	var first error
	for _, l := range s.files {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Destroy closes the store and deletes its directory.
func (s *Store) Destroy() error {
	err := s.Close()
	if derr := s.dir.RemoveAll(); derr != nil && err == nil {
		err = derr
	}
	return err
}

func windowFileName(w window.Window) string {
	return fmt.Sprintf("win_%d_%d.log", w.Start, w.End)
}
