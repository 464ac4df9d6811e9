// Package faster implements a hash-index + hybrid-log key-value store,
// the repository's stand-in for Microsoft FASTER as an SPE state backend.
// It reproduces the structural properties the paper's Faster results rest
// on (§2.2):
//
//   - an in-memory hash index mapping keys to log addresses gives O(1)
//     point access, which is why Faster wins on RMW workloads;
//   - a hybrid log whose tail lives in memory: records in the mutable
//     region are updated in place, older records spill to disk and are
//     read back with positional I/O;
//   - no native Append: list-append is read-copy-update — every
//     Append reads the entire existing list and rewrites it, the I/O
//     amplification that makes Faster collapse on append workloads;
//   - synchronization on every operation. FASTER is built for concurrent
//     access (epoch protection, latched hash buckets); those costs are
//     pure overhead for an SPE's single-threaded workers, so the store
//     faithfully pays them: an atomic epoch acquire/release plus a
//     sharded bucket lock per operation (disable with Options.NoSync for
//     the ablation).
package faster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"flowkv/internal/binio"
	"flowkv/internal/metrics"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("faster: closed")

// Options configures a store.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// MemoryBytes sizes the in-memory tail of the hybrid log. Half of it
	// is the mutable (in-place updatable) region. Default 16 MiB.
	MemoryBytes int64
	// MaxSpaceAmplification triggers a fold-over compaction of the log
	// when total/(total-dead) bytes exceed it. Default 2.0 (hash logs
	// tolerate more garbage than sorted stores).
	MaxSpaceAmplification float64
	// NoSync disables the epoch/latch synchronization cost model
	// (ablation: what Faster would cost if it dropped concurrency
	// machinery for single-threaded SPE workers).
	NoSync bool
	// Breakdown receives per-operation CPU time and I/O accounting.
	Breakdown *metrics.Breakdown
}

func (o *Options) fill() {
	if o.MemoryBytes <= 0 {
		o.MemoryBytes = 16 << 20
	}
	if o.MaxSpaceAmplification <= 0 {
		o.MaxSpaceAmplification = 2.0
	}
}

// DB is a single hybrid-log store instance.
type DB struct {
	opts Options
	bd   *metrics.Breakdown

	index map[string]int64 // key -> log address of newest record

	// Hybrid log: addresses < flushedAddr live in the file at offset ==
	// address; addresses >= flushedAddr live in buf.
	f           *os.File
	buf         []byte
	flushedAddr int64
	dead        int64
	gen         int

	// Synchronization cost model.
	epoch   atomic.Uint64
	buckets [16]sync.Mutex

	closed bool

	compactions metrics.Counter
	reads       metrics.Counter
	upserts     metrics.Counter
}

// Open creates a store rooted at opts.Dir.
func Open(opts Options) (*DB, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("faster: open: %w", err)
	}
	db := &DB{opts: opts, bd: opts.Breakdown, index: make(map[string]int64)}
	if err := db.openGen(0); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) openGen(gen int) error {
	f, err := os.OpenFile(filepath.Join(db.opts.Dir, fmt.Sprintf("hlog-%06d", gen)),
		os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("faster: hybrid log: %w", err)
	}
	db.f, db.gen = f, gen
	// A fresh buffer, not buf[:0]: compaction still reads the old
	// generation's in-memory region while filling the new one.
	db.buf = nil
	db.flushedAddr = 0
	db.dead = 0
	return nil
}

// enter/exit model FASTER's per-operation epoch protection and hash
// bucket latching — synchronization an SPE's single-threaded workers
// never need (§2.2).
func (db *DB) enter(key []byte) func() {
	if db.opts.NoSync {
		return func() {}
	}
	db.epoch.Add(1)
	var h uint32
	for _, b := range key {
		h = h*31 + uint32(b)
	}
	mu := &db.buckets[h%uint32(len(db.buckets))]
	mu.Lock()
	return func() {
		mu.Unlock()
		db.epoch.Add(1)
	}
}

func (db *DB) tailAddr() int64 { return db.flushedAddr + int64(len(db.buf)) }

func (db *DB) mutableBase() int64 {
	base := db.tailAddr() - db.opts.MemoryBytes/2
	if base < db.flushedAddr {
		base = db.flushedAddr
	}
	return base
}

// record layout: keyLen(uvarint) valLen(uvarint) key val

func appendRecord(dst, key, val []byte) []byte {
	dst = binio.PutUvarint(dst, uint64(len(key)))
	dst = binio.PutUvarint(dst, uint64(len(val)))
	dst = append(dst, key...)
	return append(dst, val...)
}

func parseRecord(b []byte) (key, val []byte, n int, err error) {
	kl, n1, err := binio.Uvarint(b)
	if err != nil {
		return nil, nil, 0, err
	}
	vl, n2, err := binio.Uvarint(b[n1:])
	if err != nil {
		return nil, nil, 0, err
	}
	head := n1 + n2
	if uint64(len(b)-head) < kl+vl {
		return nil, nil, 0, binio.ErrShortBuffer
	}
	key = b[head : head+int(kl)]
	val = b[head+int(kl) : head+int(kl)+int(vl)]
	return key, val, head + int(kl) + int(vl), nil
}

// readAt returns the record at the given log address.
func (db *DB) readAt(addr int64) (key, val []byte, err error) {
	if addr >= db.flushedAddr {
		key, val, _, err = parseRecord(db.buf[addr-db.flushedAddr:])
		return key, val, err
	}
	// On-disk record: read the header area first, then the body.
	var hdr [24]byte
	n, err := db.f.ReadAt(hdr[:], addr)
	if err != nil && n == 0 {
		return nil, nil, fmt.Errorf("faster: read header at %d: %w", addr, err)
	}
	kl, n1, err := binio.Uvarint(hdr[:n])
	if err != nil {
		return nil, nil, err
	}
	vl, n2, err := binio.Uvarint(hdr[n1:n])
	if err != nil {
		return nil, nil, err
	}
	body := make([]byte, int(kl)+int(vl))
	if _, err := db.f.ReadAt(body, addr+int64(n1+n2)); err != nil {
		return nil, nil, fmt.Errorf("faster: read body at %d: %w", addr, err)
	}
	if db.bd != nil {
		db.bd.AddBytesRead(int64(n1 + n2 + len(body)))
	}
	return body[:kl], body[kl:], nil
}

// appendToLog appends a record at the tail, spilling the cold half of the
// in-memory region to disk when it overflows.
func (db *DB) appendToLog(key, val []byte) (int64, error) {
	addr := db.tailAddr()
	db.buf = appendRecord(db.buf, key, val)
	if int64(len(db.buf)) > db.opts.MemoryBytes {
		// Spill roughly half the region, rounded up to a record boundary
		// so no record straddles the disk/memory split.
		spill := 0
		for spill < len(db.buf)/2 {
			_, _, n, err := parseRecord(db.buf[spill:])
			if err != nil {
				return 0, fmt.Errorf("faster: spill boundary: %w", err)
			}
			spill += n
		}
		if _, err := db.f.WriteAt(db.buf[:spill], db.flushedAddr); err != nil {
			return 0, fmt.Errorf("faster: spill: %w", err)
		}
		if db.bd != nil {
			db.bd.AddBytesWritten(int64(spill))
		}
		db.buf = append(db.buf[:0], db.buf[spill:]...)
		db.flushedAddr += int64(spill)
	}
	return addr, nil
}

// Upsert sets key to val.
func (db *DB) Upsert(key, val []byte) error {
	if db.closed {
		return ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpWrite)
	}
	exit := db.enter(key)
	err := db.upsert(key, val)
	exit()
	if stop != nil {
		stop()
	}
	if err != nil {
		return err
	}
	return db.maybeCompact()
}

func (db *DB) upsert(key, val []byte) error {
	db.upserts.Inc()
	if addr, ok := db.index[string(key)]; ok && addr >= db.mutableBase() {
		// In-place update when the new value fits exactly (the common
		// case for fixed-size aggregates, FASTER's fast path).
		rec := db.buf[addr-db.flushedAddr:]
		k, v, _, err := parseRecord(rec)
		if err != nil {
			return err
		}
		if len(v) == len(val) {
			copy(v, val)
			_ = k
			return nil
		}
		db.dead += int64(recordLen(k, v))
	} else if ok {
		oldKey, oldVal, err := db.readAt(addr)
		if err == nil {
			db.dead += int64(recordLen(oldKey, oldVal))
		}
	}
	newAddr, err := db.appendToLog(key, val)
	if err != nil {
		return err
	}
	db.index[string(key)] = newAddr
	return nil
}

func recordLen(key, val []byte) int {
	return len(appendRecord(nil, key, val)) // small keys: cheap enough
}

// Read returns the value of key; ok is false when absent.
func (db *DB) Read(key []byte) (val []byte, ok bool, err error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpRead)
	}
	exit := db.enter(key)
	val, ok, err = db.read(key)
	exit()
	if stop != nil {
		stop()
	}
	return val, ok, err
}

func (db *DB) read(key []byte) ([]byte, bool, error) {
	db.reads.Inc()
	addr, ok := db.index[string(key)]
	if !ok {
		return nil, false, nil
	}
	_, v, err := db.readAt(addr)
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), v...), true, nil
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	if db.closed {
		return ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpWrite)
	}
	exit := db.enter(key)
	if addr, ok := db.index[string(key)]; ok {
		if k, v, err := db.readAt(addr); err == nil {
			db.dead += int64(recordLen(k, v))
		}
		delete(db.index, string(key))
	}
	exit()
	if stop != nil {
		stop()
	}
	return nil
}

// RMW applies fn to the current value of key (nil if absent) and stores
// the result, in place when it fits the mutable region — FASTER's
// signature fast path for incremental aggregation.
func (db *DB) RMW(key []byte, fn func(old []byte) []byte) error {
	if db.closed {
		return ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpWrite)
	}
	exit := db.enter(key)
	err := db.rmw(key, fn)
	exit()
	if stop != nil {
		stop()
	}
	if err != nil {
		return err
	}
	return db.maybeCompact()
}

func (db *DB) rmw(key []byte, fn func(old []byte) []byte) error {
	addr, ok := db.index[string(key)]
	if !ok {
		newAddr, err := db.appendToLog(key, fn(nil))
		if err != nil {
			return err
		}
		db.index[string(key)] = newAddr
		return nil
	}
	if addr >= db.mutableBase() {
		rec := db.buf[addr-db.flushedAddr:]
		k, v, _, err := parseRecord(rec)
		if err != nil {
			return err
		}
		nv := fn(v)
		if len(nv) == len(v) {
			copy(v, nv)
			return nil
		}
		db.dead += int64(recordLen(k, v))
		newAddr, err := db.appendToLog(key, nv)
		if err != nil {
			return err
		}
		db.index[string(key)] = newAddr
		return nil
	}
	oldKey, oldVal, err := db.readAt(addr)
	if err != nil {
		return err
	}
	db.dead += int64(recordLen(oldKey, oldVal))
	newAddr, err := db.appendToLog(key, fn(oldVal))
	if err != nil {
		return err
	}
	db.index[string(key)] = newAddr
	return nil
}

// AppendList appends elem to the list stored at key. FASTER has no
// native append, so this is read-copy-update over the whole list: the
// paper's §2.2 "reads and writes all the previously appended values on
// every Append()".
func (db *DB) AppendList(key, elem []byte) error {
	return db.RMW(key, func(old []byte) []byte {
		out := make([]byte, 0, len(old)+len(elem)+4)
		out = append(out, old...)
		return binio.PutBytes(out, elem)
	})
}

func (db *DB) spaceAmp() float64 {
	total := db.tailAddr()
	if total == 0 || total == db.dead {
		return 1.0
	}
	return float64(total) / float64(total-db.dead)
}

func (db *DB) maybeCompact() error {
	if db.spaceAmp() <= db.opts.MaxSpaceAmplification {
		return nil
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpCompact)
	}
	err := db.compact()
	if stop != nil {
		stop()
	}
	if err == nil {
		db.compactions.Inc()
	}
	return err
}

// compact folds all live records over into a fresh hybrid log.
func (db *DB) compact() error {
	oldF := db.f
	oldBuf := db.buf
	oldFlushed := db.flushedAddr
	oldGen := db.gen

	readOld := func(addr int64) ([]byte, []byte, error) {
		if addr >= oldFlushed {
			k, v, _, err := parseRecord(oldBuf[addr-oldFlushed:])
			return k, v, err
		}
		var hdr [24]byte
		n, err := oldF.ReadAt(hdr[:], addr)
		if err != nil && n == 0 {
			return nil, nil, err
		}
		kl, n1, err := binio.Uvarint(hdr[:n])
		if err != nil {
			return nil, nil, err
		}
		vl, n2, err := binio.Uvarint(hdr[n1:n])
		if err != nil {
			return nil, nil, err
		}
		body := make([]byte, int(kl+vl))
		if _, err := oldF.ReadAt(body, addr+int64(n1+n2)); err != nil {
			return nil, nil, err
		}
		if db.bd != nil {
			db.bd.AddBytesRead(int64(len(body)))
		}
		return body[:kl], body[kl:], nil
	}

	if err := db.openGen(oldGen + 1); err != nil {
		db.f, db.buf, db.flushedAddr, db.gen = oldF, oldBuf, oldFlushed, oldGen
		return err
	}
	for k, addr := range db.index {
		key, val, err := readOld(addr)
		if err != nil {
			return fmt.Errorf("faster: compact read %q: %w", k, err)
		}
		newAddr, err := db.appendToLog(key, val)
		if err != nil {
			return err
		}
		db.index[k] = newAddr
	}
	name := oldF.Name()
	oldF.Close()
	return os.Remove(name)
}

// Flush spills the in-memory log tail to disk (checkpoint support).
func (db *DB) Flush() error {
	if db.closed {
		return ErrClosed
	}
	if len(db.buf) == 0 {
		return nil
	}
	if _, err := db.f.WriteAt(db.buf, db.flushedAddr); err != nil {
		return err
	}
	if db.bd != nil {
		db.bd.AddBytesWritten(int64(len(db.buf)))
	}
	db.flushedAddr += int64(len(db.buf))
	db.buf = db.buf[:0]
	return nil
}

// Stats describes the store for experiment reports.
type Stats struct {
	// Keys is the number of live keys in the hash index.
	Keys int
	// LogBytes is the hybrid log's total logical size.
	LogBytes int64
	// DeadBytes is the garbage awaiting compaction.
	DeadBytes int64
	// Compactions counts fold-over compactions.
	Compactions int64
	// EpochOps counts synchronization operations performed (0 with NoSync).
	EpochOps uint64
}

// Stats returns current store statistics.
func (db *DB) Stats() Stats {
	return Stats{
		Keys:        len(db.index),
		LogBytes:    db.tailAddr(),
		DeadBytes:   db.dead,
		Compactions: db.compactions.Load(),
		EpochOps:    db.epoch.Load(),
	}
}

// Close closes the store, leaving the log on disk.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	db.closed = true
	return db.f.Close()
}

// Destroy closes the store and removes its directory.
func (db *DB) Destroy() error {
	err := db.Close()
	if derr := os.RemoveAll(db.opts.Dir); derr != nil && err == nil {
		err = derr
	}
	return err
}
