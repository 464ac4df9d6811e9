// Package statebackend defines the uniform windowed-state interface the
// mini SPE uses, plus adapters binding it to the four stores evaluated in
// the paper: FlowKV, the LSM tree (RocksDB stand-in), the hash-log store
// (Faster stand-in), and the in-memory store.
//
// The adapters encode the (window, key) naming each store expects: FlowKV
// receives windows as first-class API arguments (its defining feature);
// the traditional KV stores receive a composite key — window boundary
// prefix + user key — exactly how SPEs bolt window state onto stores that
// were not built for it (§2.2: "the assigned window and the key of the
// tuple are used as the key for the KV stores").
package statebackend

import (
	"encoding/binary"
	"fmt"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faster"
	"flowkv/internal/lsm"
	"flowkv/internal/memstore"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// Backend is the windowed-state interface used by the SPE's window
// operator. One Backend instance belongs to one physical operator and is
// used from that worker's goroutine only. The FlowKV backend is also
// safe for concurrent use (core.Store carries its own locks, so a
// self-healer can run beside the worker); the other kinds are not.
//
// Aggregate contract: GetAgg logically consumes the value — the caller
// must write it back with PutAgg after aggregating (FlowKV's RMW store
// removes on Get; other backends simply overwrite). TakeAgg consumes the
// value permanently (trigger time).
type Backend interface {
	// Name identifies the backend in experiment reports.
	Name() string

	// Append adds a tuple value to (key, window) state; ts is the tuple's
	// event timestamp (used by FlowKV's ETT estimation).
	Append(key, value []byte, w window.Window, ts int64) error
	// ReadAppended fetches and removes the appended values of (key, w).
	ReadAppended(key []byte, w window.Window) ([][]byte, error)
	// PeekAppended returns the appended values of (key, w) without
	// consuming them — the probe primitive for interval joins.
	PeekAppended(key []byte, w window.Window) ([][]byte, error)
	// ReadWindow drains every key of window w in one pass if the backend
	// supports bulk window reads; ok=false directs the caller to fall
	// back to per-key ReadAppended over its registered keys. The same
	// key may be emitted more than once (FlowKV's gradual loading); the
	// caller merges.
	ReadWindow(w window.Window, emit func(key []byte, values [][]byte) error) (ok bool, err error)
	// DropAppended discards (key, w) state unread.
	DropAppended(key []byte, w window.Window) error

	// GetAgg reads the aggregate of (key, w); see the contract above.
	GetAgg(key []byte, w window.Window) ([]byte, bool, error)
	// PutAgg writes the aggregate of (key, w).
	PutAgg(key []byte, w window.Window, agg []byte) error
	// TakeAgg fetches and removes the aggregate of (key, w).
	TakeAgg(key []byte, w window.Window) ([]byte, bool, error)

	// Flush spills buffered state to disk (checkpoint support).
	Flush() error
	// Close releases resources, leaving durable state in place.
	Close() error
	// Destroy releases resources and deletes durable state.
	Destroy() error
}

// Kind selects a backend implementation.
type Kind string

// Backend kinds, named as the paper's figures label them.
const (
	KindFlowKV  Kind = "flowkv"
	KindRocksDB Kind = "rocksdb" // the internal/lsm LSM tree
	KindFaster  Kind = "faster"  // the internal/faster hash log
	KindInMem   Kind = "inmem"
)

// Kinds lists all backend kinds in the order the paper plots them.
func Kinds() []Kind { return []Kind{KindInMem, KindFlowKV, KindRocksDB, KindFaster} }

// Config describes the backend for one physical operator worker.
type Config struct {
	// Kind selects the implementation.
	Kind Kind
	// Dir is the worker-private state directory (persistent kinds).
	Dir string
	// Agg and WindowKind describe the operator for FlowKV classification.
	Agg        core.AggKind
	WindowKind window.Kind
	// Assigner provides window semantics (FlowKV's ETT predictor).
	Assigner window.Assigner
	// FlowKV, LSM, Faster, Mem hold per-kind option overrides; Dir and
	// Breakdown are filled in from this Config.
	FlowKV core.Options
	LSM    lsm.Options
	Faster faster.Options
	Mem    memstore.Options
	// Breakdown receives store CPU-time and I/O accounting.
	Breakdown *metrics.Breakdown
}

// Open constructs the configured backend.
func Open(cfg Config) (Backend, error) {
	switch cfg.Kind {
	case KindFlowKV:
		opts := cfg.FlowKV
		opts.Dir = cfg.Dir
		opts.Assigner = cfg.Assigner
		opts.Breakdown = cfg.Breakdown
		st, err := core.Open(cfg.Agg, cfg.WindowKind, opts)
		if err != nil {
			return nil, err
		}
		return &flowkvBackend{store: st}, nil
	case KindRocksDB:
		opts := cfg.LSM
		opts.Dir = cfg.Dir
		opts.Breakdown = cfg.Breakdown
		if opts.MergeOperator == nil {
			opts.MergeOperator = lsm.AppendListOperator{}
		}
		db, err := lsm.Open(opts)
		if err != nil {
			return nil, err
		}
		return &lsmBackend{db: db}, nil
	case KindFaster:
		opts := cfg.Faster
		opts.Dir = cfg.Dir
		opts.Breakdown = cfg.Breakdown
		db, err := faster.Open(opts)
		if err != nil {
			return nil, err
		}
		return &fasterBackend{db: db}, nil
	case KindInMem:
		return memstore.Open(cfg.Mem), nil
	default:
		return nil, fmt.Errorf("statebackend: unknown kind %q", cfg.Kind)
	}
}

// encodeKW builds the composite key (window prefix + user key) used by
// the traditional KV backends. Boundaries are biased big-endian so byte
// order matches numeric order, making per-window prefix scans work.
func encodeKW(w window.Window, key []byte) []byte {
	b := make([]byte, 16, 16+len(key))
	binary.BigEndian.PutUint64(b[0:], uint64(w.Start)^(1<<63))
	binary.BigEndian.PutUint64(b[8:], uint64(w.End)^(1<<63))
	return append(b, key...)
}

// windowPrefixRange returns the [start, end) composite-key range covering
// every key of window w.
func windowPrefixRange(w window.Window) (start, end []byte) {
	start = encodeKW(w, nil)
	end = append([]byte(nil), start...)
	for i := len(end) - 1; i >= 0; i-- {
		end[i]++
		if end[i] != 0 {
			return start, end
		}
	}
	return start, nil // prefix of all 0xff: unbounded
}

// flowkvBackend adapts core.Store. Windows pass through as API arguments.
type flowkvBackend struct {
	store *core.Store
}

func (b *flowkvBackend) Name() string { return string(KindFlowKV) }

func (b *flowkvBackend) Append(key, value []byte, w window.Window, ts int64) error {
	return b.store.Append(key, value, w, ts)
}

func (b *flowkvBackend) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	return b.store.Get(key, w)
}

func (b *flowkvBackend) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	return b.store.Read(key, w)
}

func (b *flowkvBackend) ReadWindow(w window.Window, emit func(key []byte, values [][]byte) error) (bool, error) {
	if b.store.Pattern() != core.PatternAAR {
		return false, nil
	}
	for {
		part, err := b.store.GetWindow(w)
		if err != nil {
			return true, err
		}
		if part == nil {
			return true, nil
		}
		for _, kv := range part {
			if err := emit(kv.Key, kv.Values); err != nil {
				return true, err
			}
		}
	}
}

func (b *flowkvBackend) DropAppended(key []byte, w window.Window) error {
	if b.store.Pattern() == core.PatternAAR {
		return b.store.DropWindow(w)
	}
	return b.store.Drop(key, w)
}

func (b *flowkvBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.store.GetAggregate(key, w)
}

func (b *flowkvBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	return b.store.PutAggregate(key, w, agg)
}

func (b *flowkvBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.store.GetAggregate(key, w)
}

func (b *flowkvBackend) Flush() error   { return b.store.Flush() }
func (b *flowkvBackend) Close() error   { return b.store.Close() }
func (b *flowkvBackend) Destroy() error { return b.store.Destroy() }

// Stats exposes FlowKV-specific metrics (prefetch hit ratio etc.).
func (b *flowkvBackend) Stats() core.Stats { return b.store.Stats() }

// Unwrapper is implemented by backend wrappers (such as the job
// manager's admission-limited backend); Unwrap returns the next backend
// in the chain so capability probes reach the concrete store.
type Unwrapper interface{ Unwrap() Backend }

// unwrap follows the wrapper chain to the innermost backend.
func unwrap(b Backend) Backend {
	for {
		u, ok := b.(Unwrapper)
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// FlowKVStats extracts FlowKV store statistics from a backend (looking
// through wrappers), reporting ok=false for other kinds.
func FlowKVStats(b Backend) (core.Stats, bool) {
	fb, ok := unwrap(b).(*flowkvBackend)
	if !ok {
		return core.Stats{}, false
	}
	return fb.Stats(), true
}

// FlowKVHealth reports the FlowKV failure-handling state of b (looking
// through wrappers), with ok=false for other backend kinds (which have
// no degraded mode).
func FlowKVHealth(b Backend) (core.Health, bool) {
	fb, ok := unwrap(b).(*flowkvBackend)
	if !ok {
		return 0, false
	}
	return fb.store.Health(), true
}

// SubscribeHealth registers fn for health-transition notifications on
// b's FlowKV store (looking through wrappers), reporting ok=false for
// backend kinds without a health machine. The callback contract is
// core.Store.NotifyHealth's: synchronous, cheap, no re-entry. The
// reason classifies the departure from Healthy (error, stall, or
// latency) so subscribers can treat a slow slot differently from a
// broken one.
func SubscribeHealth(b Backend, fn func(core.Health, core.HealthReason, error)) bool {
	fb, ok := unwrap(b).(*flowkvBackend)
	if !ok {
		return false
	}
	fb.store.NotifyHealth(fn)
	return true
}

// PartitionedWindowReader is the optional capability to read one
// window's state restricted to a key predicate, grouped by key, WITHOUT
// consuming the window: several readers can each take their own key
// range and the window is dropped wholesale afterwards. Only the FlowKV
// backend over an AAR store provides it.
type PartitionedWindowReader interface {
	ReadWindowOwned(w window.Window, own func(key []byte) bool, emit func(key []byte, values [][]byte) error) error
}

func (b *flowkvBackend) ReadWindowOwned(w window.Window, own func(key []byte) bool, emit func(key []byte, values [][]byte) error) error {
	part, err := b.store.ReadWindowOwned(w, own)
	if err != nil {
		return err
	}
	for _, kv := range part {
		if err := emit(kv.Key, kv.Values); err != nil {
			return err
		}
	}
	return nil
}

// AsPartitionedWindowReader reports whether b (looking through wrappers)
// can serve partitioned non-consuming window reads.
func AsPartitionedWindowReader(b Backend) (PartitionedWindowReader, bool) {
	fb, ok := unwrap(b).(*flowkvBackend)
	if !ok || fb.store.Pattern() != core.PatternAAR {
		return nil, false
	}
	return fb, true
}

// lsmBackend adapts the LSM tree with composite keys, list-merge appends
// (lazy merging) and prefix scans for aligned window reads.
type lsmBackend struct {
	db *lsm.DB
}

func (b *lsmBackend) Name() string { return string(KindRocksDB) }

func (b *lsmBackend) Append(key, value []byte, w window.Window, _ int64) error {
	return b.db.Merge(encodeKW(w, key), value)
}

func (b *lsmBackend) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	ck := encodeKW(w, key)
	v, ok, err := b.db.Get(ck)
	if err != nil || !ok {
		return nil, err
	}
	vals, err := binio.SplitBytes(v)
	if err != nil {
		return nil, err
	}
	return vals, b.db.Delete(ck)
}

func (b *lsmBackend) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	v, ok, err := b.db.Get(encodeKW(w, key))
	if err != nil || !ok {
		return nil, err
	}
	return binio.SplitBytes(v)
}

func (b *lsmBackend) ReadWindow(w window.Window, emit func(key []byte, values [][]byte) error) (bool, error) {
	start, end := windowPrefixRange(w)
	it, err := b.db.Scan(start, end)
	if err != nil {
		return true, err
	}
	// The scan snapshot must be fully consumed before issuing deletes.
	type group struct {
		key  []byte
		vals [][]byte
	}
	var groups []group
	for ; it.Valid(); it.Next() {
		vals, err := binio.SplitBytes(it.Value())
		if err != nil {
			return true, err
		}
		groups = append(groups, group{key: append([]byte(nil), it.Key()...), vals: vals})
	}
	if err := it.Err(); err != nil {
		return true, err
	}
	for _, g := range groups {
		if err := emit(g.key[16:], g.vals); err != nil {
			return true, err
		}
		if err := b.db.Delete(g.key); err != nil {
			return true, err
		}
	}
	return true, nil
}

func (b *lsmBackend) DropAppended(key []byte, w window.Window) error {
	return b.db.Delete(encodeKW(w, key))
}

func (b *lsmBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.db.Get(encodeKW(w, key))
}

func (b *lsmBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	return b.db.Put(encodeKW(w, key), agg)
}

func (b *lsmBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	ck := encodeKW(w, key)
	v, ok, err := b.db.Get(ck)
	if err != nil || !ok {
		return nil, ok, err
	}
	return v, true, b.db.Delete(ck)
}

func (b *lsmBackend) Flush() error   { return b.db.Flush() }
func (b *lsmBackend) Close() error   { return b.db.Close() }
func (b *lsmBackend) Destroy() error { return b.db.Destroy() }

// fasterBackend adapts the hash-log store. Appends are read-copy-update
// (the store has no native append) and there is no ordered scan, so
// aligned window reads fall back to the operator's per-key loop.
type fasterBackend struct {
	db *faster.DB
}

func (b *fasterBackend) Name() string { return string(KindFaster) }

func (b *fasterBackend) Append(key, value []byte, w window.Window, _ int64) error {
	return b.db.AppendList(encodeKW(w, key), value)
}

func (b *fasterBackend) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	ck := encodeKW(w, key)
	v, ok, err := b.db.Read(ck)
	if err != nil || !ok {
		return nil, err
	}
	vals, err := binio.SplitBytes(v)
	if err != nil {
		return nil, err
	}
	return vals, b.db.Delete(ck)
}

func (b *fasterBackend) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	v, ok, err := b.db.Read(encodeKW(w, key))
	if err != nil || !ok {
		return nil, err
	}
	return binio.SplitBytes(v)
}

func (b *fasterBackend) ReadWindow(window.Window, func(key []byte, values [][]byte) error) (bool, error) {
	return false, nil // unsorted store: no per-window scan
}

func (b *fasterBackend) DropAppended(key []byte, w window.Window) error {
	return b.db.Delete(encodeKW(w, key))
}

func (b *fasterBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	return b.db.Read(encodeKW(w, key))
}

func (b *fasterBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	return b.db.Upsert(encodeKW(w, key), agg)
}

func (b *fasterBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	ck := encodeKW(w, key)
	v, ok, err := b.db.Read(ck)
	if err != nil || !ok {
		return nil, ok, err
	}
	return v, true, b.db.Delete(ck)
}

func (b *fasterBackend) Flush() error   { return b.db.Flush() }
func (b *fasterBackend) Close() error   { return b.db.Close() }
func (b *fasterBackend) Destroy() error { return b.db.Destroy() }

// Interface checks.
var (
	_ Backend = (*flowkvBackend)(nil)
	_ Backend = (*lsmBackend)(nil)
	_ Backend = (*fasterBackend)(nil)
	_ Backend = (*memstore.Store)(nil)
)
