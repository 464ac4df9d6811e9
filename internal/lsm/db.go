// Package lsm implements a from-scratch log-structured merge tree, the
// repository's stand-in for RocksDB as an SPE state backend. It has the
// structural properties the paper's RocksDB results rest on:
//
//   - a sorted skiplist memtable flushed to sorted SSTables (blocks +
//     block index + Bloom filter + block cache);
//   - point reads that search the memtable, then level-0 files newest
//     first, then one binary-searched file per deeper level — the
//     key-sorted search overhead of §2.2;
//   - a merge operator with *lazy merging* (§2.2): Merge() appends an
//     operand without reading existing values, and operands are folded
//     together later, during reads and compactions — which is exactly why
//     RocksDB is the competitive baseline for Append workloads and why it
//     burns CPU on background merging;
//   - leveled compaction driven by a level-0 file-count trigger and
//     per-level size targets.
//
// Durability: SPEs disable per-write durability and recover from the
// source (paper §8), so there is no write-ahead log; Flush() persists the
// memtable for checkpoints.
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/metrics"
)

// ErrClosed reports an operation on a closed DB.
var ErrClosed = errors.New("lsm: closed")

// MergeOperator combines a base value with merge operands, RocksDB-style.
type MergeOperator interface {
	// FullMerge folds operands (oldest first) into base; base is nil when
	// no base value exists.
	FullMerge(base []byte, operands [][]byte) []byte
}

// AppendListOperator is the merge operator used for streaming Append
// state: values are length-prefixed lists and each operand appends one
// element, so Merge(k, v) implements list-append with lazy merging.
type AppendListOperator struct{}

// FullMerge concatenates base (already a list) with one list element per
// operand.
func (AppendListOperator) FullMerge(base []byte, operands [][]byte) []byte {
	out := append([]byte(nil), base...)
	for _, op := range operands {
		out = binio.PutBytes(out, op)
	}
	return out
}

// The level shape: deeper levels grow by levelSizeMultiplier over
// BaseLevelBytes, down to maxLevels levels.
const (
	levelSizeMultiplier = 10
	maxLevels           = 5
)

// Options configures a DB.
type Options struct {
	// Dir is the database directory (created if missing).
	Dir string
	// MemtableBytes caps the memtable before it is flushed. Default 8 MiB.
	MemtableBytes int64
	// L0CompactionTrigger is the level-0 file count that triggers
	// compaction into level 1. Default 4.
	L0CompactionTrigger int
	// BaseLevelBytes is the target size of level 1; deeper levels grow by
	// levelSizeMultiplier. Default 32 MiB.
	BaseLevelBytes int64
	// TargetFileBytes bounds individual SSTable size during compaction.
	// Default 4 MiB.
	TargetFileBytes int64
	// BlockCacheBytes sizes the block cache. 0 selects the 32 MiB
	// default; a negative value disables the cache.
	BlockCacheBytes int64
	// MergeOperator resolves Merge() operands; required to call Merge.
	MergeOperator MergeOperator
	// Breakdown receives per-operation CPU time and I/O accounting.
	Breakdown *metrics.Breakdown
}

func (o *Options) fill() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 8 << 20
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 32 << 20
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = 4 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 32 << 20
	}
}

// DB is a single-threaded LSM tree instance. Like every store in this
// repository it is owned by one worker goroutine; flushes and compactions
// run synchronously on the writing goroutine so their CPU cost lands in
// the breakdown exactly where the paper measures it.
type DB struct {
	opts    Options
	bd      *metrics.Breakdown
	mem     *skiplist
	seq     uint64
	fileSeq uint64
	levels  [][]*sstReader // levels[0]: newest first; deeper: key-ordered
	cache   *blockCache
	closed  bool

	flushCount   metrics.Counter
	compactCount metrics.Counter
}

// Open creates (or reuses the directory of) an LSM DB. Existing files in
// the directory are ignored: SPE state is rebuilt from the source on
// recovery (§8), so the DB always starts empty.
func Open(opts Options) (*DB, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: open: %w", err)
	}
	db := &DB{
		opts:   opts,
		bd:     opts.Breakdown,
		mem:    newSkiplist(),
		levels: make([][]*sstReader, maxLevels),
	}
	if opts.BlockCacheBytes > 0 {
		db.cache = newBlockCache(opts.BlockCacheBytes)
	}
	return db, nil
}

func (db *DB) nextSeq() uint64 { db.seq++; return db.seq }

// Put sets key to value.
func (db *DB) Put(key, value []byte) error {
	return db.write(key, value, kindPut)
}

// Merge appends a merge operand for key without reading existing state
// (lazy merging).
func (db *DB) Merge(key, value []byte) error {
	if db.opts.MergeOperator == nil {
		return errors.New("lsm: Merge requires a MergeOperator")
	}
	return db.write(key, value, kindMerge)
}

// Delete removes key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	return db.write(key, nil, kindDelete)
}

func (db *DB) write(key, value []byte, kind entryKind) error {
	if db.closed {
		return ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpWrite)
	}
	kc := append([]byte(nil), key...)
	vc := append([]byte(nil), value...)
	db.mem.insert(kc, db.nextSeq(), kind, vc)
	var err error
	if db.mem.approximateSize() >= db.opts.MemtableBytes {
		err = db.flushMemtable()
	}
	if stop != nil {
		stop()
	}
	if err != nil {
		return err
	}
	return db.maybeCompact()
}

// Get returns the resolved value for key; ok is false when the key does
// not exist (or is tombstoned).
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	var stop func()
	if db.bd != nil {
		stop = db.bd.Start(metrics.OpRead)
	}
	value, ok, err = db.get(key)
	if stop != nil {
		stop()
	}
	return value, ok, err
}

func (db *DB) get(key []byte) ([]byte, bool, error) {
	var operands [][]byte // newest first

	// Memtable: the newest source.
	for n := db.mem.seekGE(key, ^uint64(0)); n != nil && bytes.Equal(n.key, key); n = n.next[0] {
		switch n.kind {
		case kindPut:
			return db.resolve(n.value, false, operands), true, nil
		case kindDelete:
			return db.resolveDeleted(operands)
		case kindMerge:
			operands = append(operands, n.value)
		}
	}

	// Level 0: files overlap; search newest first.
	for _, t := range db.levels[0] {
		base, found, deleted, ops, err := t.get(key, operands)
		operands = ops
		if err != nil {
			return nil, false, err
		}
		if found {
			if deleted {
				return db.resolveDeleted(operands)
			}
			return db.resolve(base, false, operands), true, nil
		}
	}

	// Deeper levels: at most one file per level can contain the key.
	for level := 1; level < len(db.levels); level++ {
		t := db.findFile(level, key)
		if t == nil {
			continue
		}
		base, found, deleted, ops, err := t.get(key, operands)
		operands = ops
		if err != nil {
			return nil, false, err
		}
		if found {
			if deleted {
				return db.resolveDeleted(operands)
			}
			return db.resolve(base, false, operands), true, nil
		}
	}
	if len(operands) > 0 {
		return db.resolve(nil, false, operands), true, nil
	}
	return nil, false, nil
}

func (db *DB) resolve(base []byte, _ bool, operands [][]byte) []byte {
	if len(operands) == 0 {
		return base
	}
	reverse(operands)
	return db.opts.MergeOperator.FullMerge(base, operands)
}

func (db *DB) resolveDeleted(operands [][]byte) ([]byte, bool, error) {
	if len(operands) == 0 {
		return nil, false, nil
	}
	reverse(operands)
	return db.opts.MergeOperator.FullMerge(nil, operands), true, nil
}

// findFile binary-searches a sorted, non-overlapping level for the file
// whose range contains key.
func (db *DB) findFile(level int, key []byte) *sstReader {
	files := db.levels[level]
	lo, hi := 0, len(files)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(files[mid].meta.largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(files) && bytes.Compare(files[lo].meta.smallest, key) <= 0 {
		return files[lo]
	}
	return nil
}

// Scan returns an iterator over resolved entries with start <= key < end;
// a nil end is unbounded. The iterator reflects the DB state at call time
// plus the current memtable, and must be consumed before further writes.
func (db *DB) Scan(start, end []byte) (*Iterator, error) {
	if db.closed {
		return nil, ErrClosed
	}
	var iters []internalIterator
	iters = append(iters, seekIterator(memIterAdapter{db.mem.iterator()}, start))
	for _, t := range db.levels[0] {
		iters = append(iters, seekIterator(t.iterator(), start))
	}
	for level := 1; level < len(db.levels); level++ {
		for _, t := range db.levels[level] {
			if bytes.Compare(t.meta.largest, start) < 0 {
				continue
			}
			if end != nil && bytes.Compare(t.meta.smallest, end) >= 0 {
				continue
			}
			iters = append(iters, seekIterator(t.iterator(), start))
		}
	}
	it := &Iterator{
		m:   newMergingIterator(iters),
		mo:  db.opts.MergeOperator,
		end: end,
	}
	it.advance()
	return it, nil
}

// flushMemtable writes the memtable to a new level-0 SSTable.
func (db *DB) flushMemtable() error {
	if db.mem.len() == 0 {
		return nil
	}
	meta, err := db.writeTable(memIterAdapter{db.mem.iterator()}, db.mem.len(), nil)
	if err != nil {
		return err
	}
	if len(meta) > 0 {
		r, err := openSST(meta[0], db.cache, db.bd)
		if err != nil {
			return err
		}
		db.levels[0] = append([]*sstReader{r}, db.levels[0]...)
	}
	db.mem = newSkiplist()
	db.flushCount.Inc()
	return nil
}

// writeTable drains it into one or more SSTables bounded by
// TargetFileBytes when split is non-nil (compaction); a nil split writes
// a single table (memtable flush).
func (db *DB) writeTable(it internalIterator, expectKeys int, split *int64) ([]*tableMeta, error) {
	var metas []*tableMeta
	var sw *sstWriter
	var swNum uint64
	var written int64
	open := func() error {
		db.fileSeq++
		swNum = db.fileSeq
		var err error
		sw, err = newSSTWriter(filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.sst", swNum)), expectKeys, db.bd)
		return err
	}
	closeCur := func() error {
		if sw == nil {
			return nil
		}
		meta, err := sw.finish()
		if err != nil {
			return err
		}
		meta.num = swNum
		if meta.count > 0 {
			metas = append(metas, meta)
		} else {
			os.Remove(meta.path)
		}
		sw = nil
		written = 0
		return nil
	}
	for it.Valid() {
		key, seq, kind, value := it.Entry()
		if sw == nil {
			if err := open(); err != nil {
				return nil, err
			}
		}
		if err := sw.add(key, seq, kind, value); err != nil {
			sw.abort()
			return nil, err
		}
		written += int64(len(key) + len(value) + 8)
		if split != nil && written >= *split {
			if err := closeCur(); err != nil {
				return nil, err
			}
		}
		it.Next()
	}
	if err := it.Err(); err != nil {
		if sw != nil {
			sw.abort()
		}
		return nil, err
	}
	if err := closeCur(); err != nil {
		return nil, err
	}
	return metas, nil
}

// maybeCompact runs level compactions until all triggers are satisfied.
func (db *DB) maybeCompact() error {
	for {
		level := db.pickCompaction()
		if level < 0 {
			return nil
		}
		var stop func()
		if db.bd != nil {
			stop = db.bd.Start(metrics.OpCompact)
		}
		err := db.compactLevel(level)
		if stop != nil {
			stop()
		}
		if err != nil {
			return err
		}
		db.compactCount.Inc()
	}
}

func (db *DB) pickCompaction() int {
	if len(db.levels[0]) >= db.opts.L0CompactionTrigger {
		return 0
	}
	target := db.opts.BaseLevelBytes
	for level := 1; level < len(db.levels)-1; level++ {
		var size int64
		for _, t := range db.levels[level] {
			size += t.meta.size
		}
		if size > target {
			return level
		}
		target *= levelSizeMultiplier
	}
	return -1
}

// compactLevel merges level and level+1 into a fresh level+1. Version
// chains are collapsed; merge operands and tombstones are fully resolved
// when no deeper level holds data for any key (whole-level compaction
// makes this check a per-DB property).
func (db *DB) compactLevel(level int) error {
	inputs := append([]*sstReader{}, db.levels[level]...)
	inputs = append(inputs, db.levels[level+1]...)
	if len(inputs) == 0 {
		return nil
	}
	bottom := true
	for l := level + 2; l < len(db.levels); l++ {
		if len(db.levels[l]) > 0 {
			bottom = false
			break
		}
	}
	var iters []internalIterator
	var expect int
	for _, t := range inputs {
		iters = append(iters, t.iterator())
		expect += int(t.meta.count)
	}
	src := newMergingIterator(iters)
	out := &compactionIterator{src: src, mo: db.opts.MergeOperator, bottom: bottom}
	out.advance()
	metas, err := db.writeTable(out, expect, &db.opts.TargetFileBytes)
	if err != nil {
		return err
	}
	readers := make([]*sstReader, 0, len(metas))
	for _, m := range metas {
		r, err := openSST(m, db.cache, db.bd)
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	// Install the new level and delete the inputs.
	db.levels[level] = nil
	db.levels[level+1] = readers
	for _, t := range inputs {
		t.close()
		db.cache.dropFile(t.meta.num)
		os.Remove(t.meta.path)
	}
	return nil
}

// compactionIterator rewrites version chains during compaction: shadowed
// versions are dropped; at the bottom level merge chains are folded into
// a single Put and tombstones vanish.
type compactionIterator struct {
	src    *mergingIterator
	mo     MergeOperator
	bottom bool

	queue []compactionEntry
	err   error
}

type compactionEntry struct {
	key   []byte
	seq   uint64
	kind  entryKind
	value []byte
}

func (c *compactionIterator) Valid() bool { return c.err == nil && len(c.queue) > 0 }
func (c *compactionIterator) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.src.Err()
}
func (c *compactionIterator) Entry() (key []byte, seq uint64, kind entryKind, value []byte) {
	e := c.queue[0]
	return e.key, e.seq, e.kind, e.value
}
func (c *compactionIterator) Next() {
	c.queue = c.queue[1:]
	if len(c.queue) == 0 {
		c.advance()
	}
}

func (c *compactionIterator) advance() {
	for c.src.Valid() && len(c.queue) == 0 {
		// Gather one user key's version chain (newest first).
		key0, _, _, _ := c.src.Entry()
		userKey := append([]byte(nil), key0...)
		var chain []compactionEntry
		for c.src.Valid() {
			k, seq, kind, v := c.src.Entry()
			if !bytes.Equal(k, userKey) {
				break
			}
			chain = append(chain, compactionEntry{
				key: userKey, seq: seq, kind: kind, value: append([]byte(nil), v...),
			})
			c.src.Next()
		}
		if err := c.src.Err(); err != nil {
			c.err = err
			return
		}
		// Keep merges newer than the first base, plus the base itself.
		var kept []compactionEntry
		var base *compactionEntry
		for i := range chain {
			e := chain[i]
			if e.kind == kindMerge {
				kept = append(kept, e)
				continue
			}
			base = &chain[i]
			break
		}
		if c.bottom {
			// Fold everything into one Put (lazy merging resolves here).
			var operands [][]byte
			for i := len(kept) - 1; i >= 0; i-- {
				operands = append(operands, kept[i].value)
			}
			var bv []byte
			deleted := base == nil || base.kind == kindDelete
			if base != nil && base.kind == kindPut {
				bv = base.value
			}
			if deleted && len(operands) == 0 {
				continue // key disappears
			}
			val := bv
			if len(operands) > 0 {
				val = c.mo.FullMerge(bv, operands)
			}
			seq := chain[0].seq
			c.queue = append(c.queue, compactionEntry{key: userKey, seq: seq, kind: kindPut, value: val})
		} else {
			if base != nil {
				kept = append(kept, *base)
			}
			c.queue = append(c.queue, kept...)
		}
	}
}

// Flush persists the memtable to level 0 (checkpoint support).
func (db *DB) Flush() error {
	if db.closed {
		return ErrClosed
	}
	if err := db.flushMemtable(); err != nil {
		return err
	}
	return db.maybeCompact()
}

// Stats describes the DB shape for experiment reports.
type Stats struct {
	// MemtableBytes is the current memtable footprint.
	MemtableBytes int64
	// FilesPerLevel lists the SSTable count of each level.
	FilesPerLevel []int
	// DiskBytes is the total SSTable footprint.
	DiskBytes int64
	// Flushes and Compactions count maintenance operations.
	Flushes, Compactions int64
	// BlockCacheHitRatio is the block cache hit ratio.
	BlockCacheHitRatio float64
}

// Stats returns current DB statistics.
func (db *DB) Stats() Stats {
	st := Stats{
		MemtableBytes: db.mem.approximateSize(),
		Flushes:       db.flushCount.Load(),
		Compactions:   db.compactCount.Load(),
	}
	for _, files := range db.levels {
		st.FilesPerLevel = append(st.FilesPerLevel, len(files))
		for _, t := range files {
			st.DiskBytes += t.meta.size
		}
	}
	st.BlockCacheHitRatio = db.cache.hitRatio()
	return st
}

// Close closes all SSTable readers, leaving files on disk.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	db.closed = true
	var first error
	for _, files := range db.levels {
		for _, t := range files {
			if err := t.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Destroy closes the DB and removes its directory.
func (db *DB) Destroy() error {
	err := db.Close()
	if derr := os.RemoveAll(db.opts.Dir); derr != nil && err == nil {
		err = derr
	}
	return err
}
