// Package aar implements FlowKV's Append and Aligned Read store (paper
// §4.1), used for window operations whose aggregate function is holistic
// (Append) and whose window function triggers all keys simultaneously
// (fixed, sliding and global windows).
//
// The store exploits alignment with coarse-grained data organization: the
// in-memory write buffer hashes tuples by *window boundary* rather than by
// key, and the on-disk layout is one log per window. Because every tuple
// in a window's log is read and dropped at the same moment (the window's
// trigger), reads are a sequential scan and cleanup is an unlink — no
// per-key search and no compaction at all. A window's log is a list of
// files, win_S_E.N.log in write order: a checkpoint seals the last one, so
// the files it links are never written again, and the window's next flush
// opens the next file.
//
// Reads use gradual state loading: GetWindow returns one bounded partition
// per call so only one non-aggregated partition resides in memory. A
// window's log holds only what spilled; the tail still buffered when the
// window fires is served from memory, so a window that never filled the
// buffer is never written at all. Each flush writes a bucket as chunks
// grouped by key, each chunk's keys, value counts, value lengths and
// values laid out as columns and deflated whole (chunk.go): a log is read
// only whole and in order, so a chunk costs one inflate when its window
// fires and nothing in between.
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
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

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
	// FlushChunkBytes bounds the size of each flush chunk before
	// deflate; larger chunks amortize framing and give deflate more
	// context. Default 64 KiB.
	FlushChunkBytes int64
	// FineGrained cuts flush chunks per key (one chunk per key per
	// flush, deflated like any other), the naive layout the paper's
	// coarse-grained design replaces. Ablation only.
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

// winLog is one window's log: its files in write order, every one but the
// last sealed; the last takes the window's flushes while open.
type winLog struct {
	files []winFile
	open  bool
}

// winFile is one file of a window's log: win_S_E.N.log (fileName), and
// the epoch a checkpoint tells it from another file of its name by.
type winFile struct {
	*logfile.Log
	n     int
	epoch uint64
}

// remove unlinks every file of the log, returning the first failure but
// one matching ignore; every unlink is attempted.
func (wl *winLog) remove(ignore error) (first error) {
	for _, f := range wl.files {
		if err := f.Remove(); !errors.Is(err, ignore) {
			first = cmp.Or(first, err)
		}
	}
	return first
}

// readState is a window drain in progress: its log is read from offset off
// of file file, then its bucket from entry served.
type readState struct {
	sc *logfile.Scanner
	// file and off locate the first record not yet served in a returned
	// partition, off never past the last file. On a scan error the
	// scanner is dropped and recreated here, so a transient read fault is
	// retryable without duplicating or skipping records.
	file   int
	off    int64
	served int // bucket entries, in arrival order, returned from memory
}

// closeScan drops the scanner; the next read recreates it at off.
func (rs *readState) closeScan() {
	if rs.sc != nil {
		rs.sc.Close()
		rs.sc = nil
	}
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
	// tuples is the block the buffered tuples are copied into, filled
	// up to its length; a full one is left to the entries pointing into
	// it and replaced.
	tuples []byte
	// spare holds emptied entry slices of flushed or drained buckets
	// (keepSpareLocked).
	spare [][]kvPair

	// ioMu serializes file state: flushes, scans, drops, checkpoints.
	// Never acquired while holding mu.
	ioMu  sync.Mutex
	files map[window.Window]*winLog
	reads map[window.Window]*readState
	// nextFile numbers the next file a window's log opens: numbers are
	// unique within the store, so no file is ever created over another.
	nextFile int
	// chunk and enc are the flush chunk encode buffers.
	chunk []byte
	enc   chunkEncoder

	// syncMu admits one split sync at a time; held around (not under)
	// ioMu so the fsyncs run with ioMu released.
	syncMu sync.Mutex

	// Stats counted for the evaluation harness.
	appends  metrics.Counter
	flushes  metrics.Counter
	tuplesIn metrics.Counter
}

// Open creates an AAR store instance rooted at opts.Dir. A store starts
// empty, so window files an earlier process left in the directory are
// unlinked: a restored one shares its inode with a checkpoint, which
// creating over it would truncate.
func Open(opts Options) (*Store, error) {
	opts.fill()
	dir, err := logfile.OpenDirFS(opts.FS, opts.Dir, opts.Breakdown)
	if err != nil {
		return nil, err
	}
	ents, err := dir.FS().ReadDir(dir.Root())
	for _, e := range ents {
		if _, _, ok := parseFileName(e.Name()); ok {
			err = cmp.Or(err, dir.Remove(e.Name()))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("aar: clear stale window files: %w", err)
	}
	dir.SetPolicy(opts.Policy)
	return &Store{
		opts:  opts,
		dir:   dir,
		bd:    opts.Breakdown,
		buf:   make(map[window.Window]*bucket),
		files: make(map[window.Window]*winLog),
		reads: make(map[window.Window]*readState),
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	b := s.buf[w]
	if b == nil {
		b = &bucket{}
		if n := len(s.spare); n > 0 {
			b.entries, s.spare = s.spare[n-1], s.spare[:n-1]
		}
		s.buf[w] = b
	}
	b.entries = append(b.entries, s.copyTuple(key, value))
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

// tupleBlock is the size of the blocks Append copies tuples into, so that
// a small tuple costs no allocation of its own.
const tupleBlock = 16 << 10

// copyTuple copies key and value into the current tuple block, or into an
// allocation of their own when they would take more than a quarter of
// one. Caller holds mu.
func (s *Store) copyTuple(key, value []byte) kvPair {
	n := len(key) + len(value)
	var kv []byte
	if n > tupleBlock/4 {
		kv = make([]byte, 0, n)
	} else {
		if cap(s.tuples)-len(s.tuples) < n {
			s.tuples = make([]byte, 0, tupleBlock)
		}
		kv = s.tuples[len(s.tuples):]
		s.tuples = s.tuples[:len(s.tuples)+n]
	}
	kv = append(append(kv, key...), value...)
	return kvPair{kv[:len(key):len(key)], kv[len(key):n:n]}
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
		s.mu.Lock()
		s.keepSpareLocked(b.entries)
		s.mu.Unlock()
	}
	s.flushes.Inc()
	return nil
}

// maxSpare bounds the entry slices kept for new buckets.
const maxSpare = 4

// keepSpareLocked keeps, while fewer than maxSpare are kept, the entry
// slice of a bucket that was flushed or drained, emptied, for the next
// bucket an append opens: it then fills an array left behind instead of
// growing a new one from nothing. The values handed out alias the tuple
// blocks, not the slice. Caller holds mu.
func (s *Store) keepSpareLocked(entries []kvPair) {
	if len(s.spare) < maxSpare && cap(entries) > 0 {
		clear(entries) // the tuples go with the bucket
		s.spare = append(s.spare, entries[:0])
	}
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
	l, err := s.openFile(w)
	if err != nil {
		return b.entries, err
	}
	rs := s.reads[w]
	if rs == nil {
		rest, _, err := s.writeChunks(l, b.entries)
		return rest, err
	}
	// Mid-drain: entries[:served] went out from memory. They go first, so
	// the log holds the whole window, and the drain resumes past them.
	rs.closeScan()
	served := min(rs.served, len(b.entries))
	rest, end, err := s.writeChunks(l, b.entries[:served])
	if served > 0 {
		rs.file, rs.off = len(s.files[w].files)-1, end
	}
	rs.served = len(rest)
	if err != nil {
		// rest, a suffix of entries[:served], goes back still served.
		return b.entries[served-len(rest):], err
	}
	rest, _, err = s.writeChunks(l, b.entries[served:])
	return rest, err
}

// openFile returns the file window w's flushes append to, opening the
// window's next file when it has none open — none yet, or a checkpoint
// sealed its last. Caller holds ioMu.
func (s *Store) openFile(w window.Window) (*logfile.Log, error) {
	wl := s.files[w]
	if wl != nil && wl.open {
		return wl.files[len(wl.files)-1].Log, nil
	}
	l, err := s.dir.Create(fileName(w, s.nextFile))
	if err != nil {
		return nil, err
	}
	if wl == nil {
		wl = &winLog{}
		s.files[w] = wl
	}
	wl.files = append(wl.files, winFile{l, s.nextFile, rand.Uint64()})
	wl.open = true
	s.nextFile++
	return l, nil
}

// writeChunks sorts entries stably by key, so each key keeps its arrival
// order, and appends them to l as flush chunks of about FlushChunkBytes
// before deflate — the paper's coarse-grained layout, data organized by
// window — or, in the FineGrained ablation, one chunk per key. It returns the entries the
// log did not accept, a suffix of the sorted entries, and the offset just
// past the last chunk it accepted.
func (s *Store) writeChunks(l *logfile.Log, entries []kvPair) ([]kvPair, int64, error) {
	sortByKey(entries)
	end := l.Size()
	start, size := 0, int64(0)
	for i, e := range entries {
		if i == start || !bytes.Equal(e.k, entries[i-1].k) {
			size += int64(len(e.k)) + 3
		}
		size += int64(len(e.v)) + 1
		if i+1 < len(entries) && size < s.opts.FlushChunkBytes &&
			!(s.opts.FineGrained && !bytes.Equal(e.k, entries[i+1].k)) {
			continue
		}
		chunk, err := s.enc.encode(s.chunk[:0], entries[start:i+1])
		if err != nil {
			return entries[start:], end, err
		}
		s.chunk = chunk
		off, n, err := l.Append(chunk)
		if err != nil {
			return entries[start:], end, err
		}
		end, start, size = off+int64(n), i+1, 0
	}
	return nil, end, nil
}

// sortByKey sorts entries stably by key, in place, at a third of a
// comparison sort's cost: an LSD radix sort on the keys' first eight
// bytes, skipping bytes all keys share, then a stable sort by whole key
// of any run that ties on them but holds different keys.
func sortByKey(entries []kvPair) {
	type ord struct {
		pfx uint64
		i   int
	}
	n := len(entries)
	ab := make([]ord, 2*n)
	a, b := ab[:n], ab[n:]
	var varies uint64 // the bits that differ between keys
	for i, e := range entries {
		var p [8]byte
		copy(p[:], e.k)
		a[i] = ord{binary.BigEndian.Uint64(p[:]), i}
		varies |= a[i].pfx ^ a[0].pfx
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		var at [257]int
		for _, x := range a {
			at[int(byte(x.pfx>>shift))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, x := range a {
			b[at[byte(x.pfx>>shift)]] = x
			at[byte(x.pfx>>shift)]++
		}
		a, b = b, a
	}
	for j := range a { // position k takes entry a[k].i, cycle by cycle
		tmp, k := entries[j], j
		for a[k].i != j && a[k].i >= 0 {
			entries[k], a[k].i, k = entries[a[k].i], -1, a[k].i
		}
		entries[k], a[k].i = tmp, -1
	}
	for i, j := 0, 1; i < n; i, j = j, j+1 {
		for j < n && a[j].pfx == a[i].pfx {
			j++
		}
		if !slices.EqualFunc(entries[i+1:j], entries[i:j-1], func(x, y kvPair) bool {
			return len(x.k) == len(y.k) && (len(x.k) <= 8 || bytes.Equal(x.k, y.k))
		}) {
			slices.SortStableFunc(entries[i:j], func(x, y kvPair) int { return bytes.Compare(x.k, y.k) })
		}
	}
}

// GetWindow returns the next partition of window w's state, grouped by
// key, or nil when the window is exhausted — at which point its on-disk
// log has been unlinked (paper API: GetWindow(W), fetch & remove). The
// same key may appear in multiple partitions; the consumer merges.
// Concurrent GetWindow calls for the same window serialize on ioMu and
// each receive a distinct partition. Values served from the write buffer
// are shared with it, not copied: callers must not modify them.
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

// getWindow scans the window's files in order from rs's position, then
// serves the bucket's entries from memory, oldest first, all inside one
// LoadPartitionBytes bound. The bucket stays buffered until the drain
// completes, so a flush between two calls still writes the whole window
// (flushBucket).
func (s *Store) getWindow(w window.Window) ([]KeyValues, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	closed, buffered := s.closed, s.buf[w] != nil
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	wl, rs := s.files[w], s.reads[w]
	if rs == nil && wl == nil && !buffered {
		return nil, nil // window has no state
	} else if rs == nil {
		rs = &readState{}
		s.reads[w] = rs
	}
	p := partition{groups: make(map[string]int)}
	limit := s.opts.LoadPartitionBytes
	file, off := rs.file, rs.off
	onDisk := wl != nil
	for onDisk && p.bytes < limit {
		if rs.sc == nil {
			for file+1 < len(wl.files) && off >= wl.files[file].Size() {
				file, off = file+1, 0
			}
			if onDisk = off < wl.files[file].Size(); !onDisk {
				break
			}
			sc, err := wl.files[file].Scanner(off)
			if err != nil {
				return nil, err
			}
			rs.sc = sc
		}
		if !rs.sc.Scan() {
			// End of the file, or a read fault: a retry rescans from rs's
			// position, the first record of this (discarded) partition
			// attempt. A file ends at its size, or at a torn tail.
			err := rs.sc.Err()
			rs.sc = nil
			if err != nil {
				return nil, err
			}
			off = wl.files[file].Size()
			continue
		}
		info, err := DecodeChunk(rs.sc.Record(), p.add)
		if err != nil {
			rs.closeScan()
			return nil, fmt.Errorf("aar: window %v: %w", w, err)
		}
		off = rs.sc.Offset()
		p.bytes += int64(info.Decoded)
	}
	rs.file, rs.off = file, off
	if !onDisk && p.bytes < limit {
		// The log is exhausted: serve the buffered tail.
		s.mu.Lock()
		var tail []kvPair
		if b := s.buf[w]; b != nil {
			if rs.served < len(b.entries) {
				tail = b.entries[rs.served:]
			} else if len(p.part) == 0 {
				s.bufBytes -= b.bytes
				delete(s.buf, w)
				s.keepSpareLocked(b.entries)
			}
		}
		s.mu.Unlock()
		one := make([][]byte, 1)
		for _, e := range tail {
			if p.bytes >= limit {
				break
			}
			p.bytes += int64(len(e.k) + len(e.v))
			one[0] = e.v
			p.add(e.k, one)
			rs.served++
		}
	}
	if len(p.part) == 0 {
		// Exhausted: clean the window's files from disk (step ④).
		delete(s.reads, w)
		delete(s.files, w)
		if wl != nil {
			// A poisoned log's close error is expected in degraded mode;
			// the unlink still happened and the data was fully served.
			if err := wl.remove(logfile.ErrPoisoned); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	return p.part, nil
}

// partition groups tuples by key, in order of each key's first tuple.
type partition struct {
	groups map[string]int
	part   []KeyValues
	bytes  int64
}

func (p *partition) add(k []byte, vals [][]byte) {
	idx, seen := p.groups[string(k)]
	if !seen {
		idx = len(p.part)
		p.groups[string(k)] = idx
		p.part = append(p.part, KeyValues{Key: append([]byte(nil), k...)})
	}
	p.part[idx].Values = append(p.part[idx].Values, vals...)
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
	if wl := s.files[w]; wl != nil {
		delete(s.files, w)
		return wl.remove(nil)
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

	p := partition{groups: make(map[string]int)}
	add := func(k []byte, vals [][]byte) {
		if own == nil || own(k) {
			p.add(k, vals)
		}
	}
	for _, l := range s.windowLogs(w) {
		sc, err := l.Scanner(0)
		if err != nil {
			return nil, err
		}
		for sc.Scan() {
			if _, err := DecodeChunk(sc.Record(), add); err != nil {
				sc.Close()
				return nil, fmt.Errorf("aar: window %v: %w", w, err)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	for _, e := range buffered {
		add(e.k, [][]byte{e.v})
	}
	return p.part, nil
}

// BufferedBytes returns the current in-memory write buffer size.
func (s *Store) BufferedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufBytes
}

// LiveWindows returns the number of windows with buffered or on-disk state.
func (s *Store) LiveWindows() int { return len(s.Windows()) }

// Appends returns the number of Append calls served.
func (s *Store) Appends() int64 { return s.appends.Load() }

// Flushes returns the number of full write-buffer flushes performed.
func (s *Store) Flushes() int64 { return s.flushes.Load() }

// DiskUsage returns the logical bytes of the instance's window files,
// including appends still in their write-through buffers.
func (s *Store) DiskUsage() int64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var total int64
	for _, l := range s.liveLogs() {
		total += l.Size()
	}
	return total
}

// LiveFiles returns the number of window files the instance holds open.
func (s *Store) LiveFiles() int {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return len(s.liveLogs())
}

// Flush spills all buffered data to disk (checkpoint support, §8).
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushAllLocked(); err != nil {
		return err
	}
	for _, l := range s.liveLogs() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes all buffered data and fsyncs every window file holding
// bytes not yet durable, making every acknowledged Append durable. Each
// fsync runs outside ioMu (logfile.SplitSync), so window drains and later
// flushes overlap the syncs instead of queueing behind them; syncMu keeps
// at most one split sync in flight per log, as the protocol requires. A
// window consumed at any point — before its turn, or while its fsync is in
// flight — leaves nothing to make durable.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.ioMu.Lock()
	if err := s.flushAllLocked(); err != nil {
		s.ioMu.Unlock()
		return err
	}
	logs := s.liveLogs()
	s.ioMu.Unlock()
	for _, l := range logs {
		if err := logfile.SplitSync(&s.ioMu, func() *logfile.Log {
			if l.Closed() || l.DurableOffset() == l.Size() { // removed, or nothing to sync
				return nil
			}
			return l
		}); err != nil {
			return err
		}
	}
	return nil
}

// windowLogs returns window w's files in write order; caller holds ioMu.
func (s *Store) windowLogs(w window.Window) []*logfile.Log {
	var logs []*logfile.Log
	if wl := s.files[w]; wl != nil {
		for _, f := range wl.files {
			logs = append(logs, f.Log)
		}
	}
	return logs
}

// liveLogs returns every open window file; caller holds ioMu.
func (s *Store) liveLogs() []*logfile.Log {
	var logs []*logfile.Log
	for w := range s.files {
		logs = append(logs, s.windowLogs(w)...)
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
		if logfile.FirstPoisoned(s.windowLogs(w)) != nil {
			rs.closeScan() // the scanner may hold a stale fd
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
	for _, l := range s.liveLogs() {
		first = cmp.Or(first, l.Close())
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

// fileName names file n of window w's log.
func fileName(w window.Window, n int) string {
	return fmt.Sprintf("win_%d_%d.%d.log", w.Start, w.End, n)
}

// parseFileName inverts fileName.
func parseFileName(name string) (w window.Window, n int, ok bool) {
	if !strings.HasPrefix(name, "win_") || !strings.HasSuffix(name, ".log") {
		return w, 0, false
	}
	_, err := fmt.Sscanf(name, "win_%d_%d.%d.log", &w.Start, &w.End, &n)
	return w, n, err == nil && fileName(w, n) == name
}
