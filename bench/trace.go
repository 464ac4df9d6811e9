package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// Span is one timed call at a layer boundary, recorded from the
// benchmark's side of the seam. Spans of one commit share the generation
// directory name as Tag; spans of one window read share the window.
type Span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer of one workload; spans past
// it are counted, not kept.
const maxSpans = 250_000

// spanFloor keeps the buffer for calls that matter: a backend op
// shorter than this is counted and timed but leaves no span (the common
// buffered append takes well under a microsecond).
const spanFloor = 50 * time.Microsecond

// tracer is the traced run's shared state: the span buffer, the traced
// backends (so a filesystem call can find the backend op that caused
// it), and the commit in progress.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32

	mu       sync.Mutex
	spans    []Span
	dropped  int64
	backends []*tracedBackend

	// Per input stream (tenant): the span id of the commit gap in
	// progress (0 if none) and the generation directory of the latest
	// checkpoint call.
	commitID [maxStreams]atomic.Int32
	genTag   [maxStreams]atomic.Value // string
}

// maxStreams bounds the input streams (tenants) of one workload.
const maxStreams = 4

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int32 { return t.nextID.Add(1) }

func (t *tracer) record(id, parent int32, name, tag string, start, end time.Time) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Tag: tag,
			StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// owner returns the traced backend whose state directory, or whose
// checkpoint in progress, holds path.
func (t *tracer) owner(path string) *tracedBackend {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.backends {
		if strings.HasPrefix(path, b.dir) {
			return b
		}
		if ckpt, _ := b.ckptDir.Load().(string); ckpt != "" && strings.HasPrefix(path, ckpt) {
			return b
		}
	}
	return nil
}

// Backend operations timed at the statebackend boundary.
const (
	opAppend = iota
	opReadWindow
	opReadAppended
	opPeekAppended
	opGetAgg
	opPutAgg
	opTakeAgg
	opCheckpoint
	numBackendOps
)

var backendOpNames = [numBackendOps]string{
	"append", "read_window", "read_appended", "peek_appended", "get_agg", "put_agg", "take_agg", "checkpoint",
}

// backendTotals accumulates what the traced backends of one workload
// saw; a backend folds its counters in when it is closed or destroyed.
type backendTotals struct {
	mu      sync.Mutex
	ops     [numBackendOps]int64
	ns      [numBackendOps]int64
	errors  int64
	windows int64 // distinct windows drained through ReadWindow
	core    coreTotals
}

// coreTotals sums core.Stats over the stores of a workload (quantiles
// take the worst store, as a pipeline is as slow as its slowest shard).
type coreTotals struct {
	hits, misses, evictions, compactions int64
	linked, copied, stalls               int64
	writeP99, readP99, syncP99           time.Duration
}

func (c *coreTotals) add(st core.Stats) {
	c.hits += st.Hits
	c.misses += st.Misses
	c.evictions += st.Evictions
	c.compactions += st.Compactions
	c.linked += st.CkptLinkedBytes
	c.copied += st.CkptCopiedBytes
	c.stalls += st.Stalls
	c.writeP99 = max(c.writeP99, st.WriteP99)
	c.readP99 = max(c.readP99, st.ReadP99)
	c.syncP99 = max(c.syncP99, st.SyncP99)
}

// tracedBackend times every call through the statebackend interface. It
// keeps Unwrap so capability probes (health, stats, partitioned reads)
// reach the store, and implements the checkpoint capabilities itself so
// commits are timed too. One backend belongs to one worker; the barrier
// protocol orders the coordinator's checkpoint calls against it.
type tracedBackend struct {
	statebackend.Backend
	tr     *tracer
	tot    *backendTotals
	dir    string
	stream int

	ops    [numBackendOps]int64
	ns     [numBackendOps]int64
	errors int64
	wins   int64
	// cur is the span id of the call in progress, read by filesystem
	// spans to name their parent; ckptDir is the directory the checkpoint
	// in progress writes to ("" otherwise).
	cur     atomic.Int32
	ckptDir atomic.Value // string
}

// traceBackend wraps b, whose state lives under dir and which serves
// input stream number stream.
func (t *tracer) traceBackend(b statebackend.Backend, dir string, stream int, tot *backendTotals) statebackend.Backend {
	tb := &tracedBackend{Backend: b, tr: t, tot: tot, dir: dir, stream: stream}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.backends {
		if old.dir == dir { // a job reopens each worker's store once
			t.backends[i] = tb
			return tb
		}
	}
	t.backends = append(t.backends, tb)
	return tb
}

// Unwrap lets capability probes reach the wrapped backend.
func (b *tracedBackend) Unwrap() statebackend.Backend { return b.Backend }

func (b *tracedBackend) begin() (int32, time.Time) {
	id := b.tr.newID()
	b.cur.Store(id)
	return id, time.Now()
}

func (b *tracedBackend) end(op int, id int32, start time.Time, tag string, err error) {
	end := time.Now()
	b.cur.Store(0)
	b.ops[op]++
	b.ns[op] += end.Sub(start).Nanoseconds()
	if err != nil {
		b.errors++
	}
	if end.Sub(start) >= spanFloor || op == opCheckpoint {
		parent := int32(0)
		if op == opCheckpoint {
			parent = b.tr.commitID[b.stream].Load()
		}
		b.tr.record(id, parent, "statebackend."+backendOpNames[op], tag, start, end)
	}
}

func (b *tracedBackend) Append(key, value []byte, w window.Window, ts int64) error {
	id, t0 := b.begin()
	err := b.Backend.Append(key, value, w, ts)
	b.end(opAppend, id, t0, "", err)
	return err
}

func (b *tracedBackend) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	id, t0 := b.begin()
	vals, err := b.Backend.ReadAppended(key, w)
	b.end(opReadAppended, id, t0, "", err)
	return vals, err
}

func (b *tracedBackend) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	id, t0 := b.begin()
	vals, err := b.Backend.PeekAppended(key, w)
	b.end(opPeekAppended, id, t0, "", err)
	return vals, err
}

func (b *tracedBackend) ReadWindow(w window.Window, emit func(key []byte, values [][]byte) error) (bool, error) {
	id, t0 := b.begin()
	ok, err := b.Backend.ReadWindow(w, emit)
	if ok {
		b.wins++
		b.end(opReadWindow, id, t0, w.String(), err)
	} else {
		b.cur.Store(0) // unsupported: the operator falls back to per-key reads
	}
	return ok, err
}

func (b *tracedBackend) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	id, t0 := b.begin()
	agg, ok, err := b.Backend.GetAgg(key, w)
	b.end(opGetAgg, id, t0, "", err)
	return agg, ok, err
}

func (b *tracedBackend) PutAgg(key []byte, w window.Window, agg []byte) error {
	id, t0 := b.begin()
	err := b.Backend.PutAgg(key, w, agg)
	b.end(opPutAgg, id, t0, "", err)
	return err
}

func (b *tracedBackend) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	id, t0 := b.begin()
	agg, ok, err := b.Backend.TakeAgg(key, w)
	b.end(opTakeAgg, id, t0, "", err)
	return agg, ok, err
}

func errNoCheckpoint(b statebackend.Backend) error {
	return fmt.Errorf("bench: backend %s does not support checkpointing", b.Name())
}

// beginCheckpoint opens a checkpoint span; its tag is the generation
// directory (the job layout is <job>/gen-NNNNNN/<worker>).
func (b *tracedBackend) beginCheckpoint(dir string) (int32, time.Time, string) {
	tag := filepath.Base(filepath.Dir(dir))
	b.tr.genTag[b.stream].Store(tag)
	b.ckptDir.Store(dir)
	id, t0 := b.begin()
	return id, t0, tag
}

// CheckpointMeta implements statebackend.Checkpointer.
func (b *tracedBackend) CheckpointMeta(dir string, meta []byte) error {
	cp, ok := statebackend.AsCheckpointer(b.Backend)
	if !ok {
		return errNoCheckpoint(b.Backend)
	}
	id, t0, tag := b.beginCheckpoint(dir)
	err := cp.CheckpointMeta(dir, meta)
	b.ckptDir.Store("")
	b.end(opCheckpoint, id, t0, tag, err)
	return err
}

// CheckpointDeltaMeta implements statebackend.DeltaCheckpointer.
func (b *tracedBackend) CheckpointDeltaMeta(dir, parent string, meta []byte) error {
	cp, ok := statebackend.AsDeltaCheckpointer(b.Backend)
	if !ok {
		return errNoCheckpoint(b.Backend)
	}
	id, t0, tag := b.beginCheckpoint(dir)
	err := cp.CheckpointDeltaMeta(dir, parent, meta)
	b.ckptDir.Store("")
	b.end(opCheckpoint, id, t0, tag, err)
	return err
}

// RestoreMeta implements statebackend.Checkpointer.
func (b *tracedBackend) RestoreMeta(dir string) ([]byte, error) {
	cp, ok := statebackend.AsCheckpointer(b.Backend)
	if !ok {
		return nil, errNoCheckpoint(b.Backend)
	}
	return cp.RestoreMeta(dir)
}

// fold hands the backend's counters and its store's final stats to the
// workload totals; called once, when the runtime releases the backend.
func (b *tracedBackend) fold() {
	b.tot.mu.Lock()
	defer b.tot.mu.Unlock()
	for op := range b.ops {
		b.tot.ops[op] += b.ops[op]
		b.tot.ns[op] += b.ns[op]
	}
	b.tot.errors += b.errors
	b.tot.windows += b.wins
	if st, ok := statebackend.FlowKVStats(b.Backend); ok {
		b.tot.core.add(st)
	}
	b.ops, b.ns, b.errors, b.wins = [numBackendOps]int64{}, [numBackendOps]int64{}, 0, 0
}

func (b *tracedBackend) Close() error {
	b.fold()
	return b.Backend.Close()
}

func (b *tracedBackend) Destroy() error {
	b.fold()
	return b.Backend.Destroy()
}

var (
	_ statebackend.Backend           = (*tracedBackend)(nil)
	_ statebackend.Unwrapper         = (*tracedBackend)(nil)
	_ statebackend.DeltaCheckpointer = (*tracedBackend)(nil)
)
