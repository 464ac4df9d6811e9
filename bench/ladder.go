package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager"
	"flowkv/internal/logfile"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// The ladder runs one workload's own state traffic against each layer's
// public API, bottom up, single-threaded: the backend calls a
// parallelism-1 run of the query makes are recorded at the statebackend
// boundary and replayed against binio, logfile, one pattern instance,
// core.Store and statebackend; the same tuples then run through spe.Run,
// spe.Job and a jobmanager tenant. Every rung divides its time by the
// same op count, so a layer's cost is its rung minus the rung below.

// LadderRung is one rung's repeats.
type LadderRung struct {
	Workload string `json:"workload"`
	Pattern  string `json:"pattern"`
	Rung     string `json:"rung"`
	Ops      int    `json:"ops"`
	Tuples   int    `json:"tuples"`
	// Per repeat: time and heap allocations per op, bytes written through
	// the filesystem seam per op, fsyncs per thousand ops.
	NsOp      []float64 `json:"ns_op"`
	AllocsOp  []float64 `json:"allocs_op"`
	BytesOp   []float64 `json:"bytes_op"`
	FsyncsKop []float64 `json:"fsyncs_per_kop"`
}

// backendOp is one recorded call at the statebackend boundary.
type backendOp struct {
	kind     int
	key, val []byte
	w        window.Window
	ts       int64
}

func (op *backendOp) isWrite() bool { return op.kind == opAppend || op.kind == opPutAgg }

// recorder captures the calls of a single-worker run.
type recorder struct {
	statebackend.Backend
	ops []backendOp
	n   atomic.Int64
}

func (r *recorder) Unwrap() statebackend.Backend { return r.Backend }

func (r *recorder) note(kind int, key, val []byte, w window.Window, ts int64) {
	r.ops = append(r.ops, backendOp{kind: kind, key: append([]byte(nil), key...), val: append([]byte(nil), val...), w: w, ts: ts})
	r.n.Add(1)
}

func (r *recorder) Append(key, value []byte, w window.Window, ts int64) error {
	r.note(opAppend, key, value, w, ts)
	return r.Backend.Append(key, value, w, ts)
}

func (r *recorder) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	r.note(opReadAppended, key, nil, w, 0)
	return r.Backend.ReadAppended(key, w)
}

func (r *recorder) ReadWindow(w window.Window, emit func([]byte, [][]byte) error) (bool, error) {
	ok, err := r.Backend.ReadWindow(w, emit)
	if ok {
		r.note(opReadWindow, nil, nil, w, 0)
	}
	return ok, err
}

func (r *recorder) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	r.note(opGetAgg, key, nil, w, 0)
	return r.Backend.GetAgg(key, w)
}

func (r *recorder) PutAgg(key []byte, w window.Window, agg []byte) error {
	r.note(opPutAgg, key, agg, w, 0)
	return r.Backend.PutAgg(key, w, agg)
}

func (r *recorder) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	r.note(opTakeAgg, key, nil, w, 0)
	return r.Backend.TakeAgg(key, w)
}

// ladderRun holds what every rung of one workload's ladder shares.
type ladderRun struct {
	w      *Workload
	qs     QuerySpec // the workload's query at parallelism 1
	blk    *Block
	root   string
	ops    []backendOp
	tuples int64
	fs     *countFS
	seq    int

	agg      core.AggKind
	assigner window.Assigner
	pattern  core.Pattern
}

func (l *ladderRun) dir() string {
	l.seq++
	return filepath.Join(l.root, fmt.Sprintf("rung-%03d", l.seq))
}

func (l *ladderRun) opts() core.Options { return l.w.storeOptions(l.fs) }

// record runs the query at parallelism 1 until it has made maxOps
// backend calls (plus the end-of-stream flush).
func (l *ladderRun) record(maxOps int) error {
	rec := &recorder{}
	q, err := l.w.build(l.qs, l.dir(), nil, func(b statebackend.Backend, _ string) statebackend.Backend {
		rec.Backend = b
		return rec
	})
	if err != nil {
		return err
	}
	win := q.Pipeline.Stages[0].Window
	l.assigner = win.Assigner
	l.agg = core.AggIncremental
	if win.IsHolistic() {
		l.agg = core.AggHolistic
	}
	l.pattern = core.Classify(l.agg, l.assigner.Kind())
	src := newBlockSource(l.blk, 1<<40)
	_, err = spe.Run(q.Pipeline, func(emit func(spe.Tuple)) {
		for rec.n.Load() < int64(maxOps) {
			t, _ := src.Next()
			emit(t)
			l.tuples++
		}
	}, nil)
	l.ops = rec.ops
	return err
}

// measure times fn over the recorded op count, repeats times.
func (l *ladderRun) measure(rung string, repeats int, fn func(dir string) error) (LadderRung, error) {
	out := LadderRung{Workload: l.w.Name, Pattern: strings.ToLower(l.pattern.String()), Rung: rung, Ops: len(l.ops), Tuples: int(l.tuples)}
	n := float64(len(l.ops))
	for i := 0; i < repeats; i++ {
		dir := l.dir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return out, err
		}
		bytes0, syncs0 := l.fs.writeBytes.Load(), l.fs.calls[fsFsync].Load()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := fn(dir)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		os.RemoveAll(dir)
		if err != nil {
			return out, fmt.Errorf("bench: ladder %s: %w", rung, err)
		}
		out.NsOp = append(out.NsOp, float64(d.Nanoseconds())/n)
		out.AllocsOp = append(out.AllocsOp, float64(m1.Mallocs-m0.Mallocs)/n)
		out.BytesOp = append(out.BytesOp, float64(l.fs.writeBytes.Load()-bytes0)/n)
		out.FsyncsKop = append(out.FsyncsKop, float64(l.fs.calls[fsFsync].Load()-syncs0)/n*1000)
	}
	return out, nil
}

// replay drives the recorded ops through apply.
func (l *ladderRun) replay(apply func(op *backendOp) error) error {
	for i := range l.ops {
		if err := apply(&l.ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// binioRung frames every written payload into memory and decodes one
// frame per read.
func (l *ladderRun) binioRung(string) error {
	var buf, payload []byte
	cursor := 0
	return l.replay(func(op *backendOp) error {
		if op.isWrite() {
			if len(buf) > 1<<20 {
				buf, cursor = buf[:0], 0
			}
			payload = append(append(payload[:0], op.key...), op.val...)
			buf = binio.AppendRecord(buf, payload)
			return nil
		}
		if cursor < len(buf) {
			_, n, err := binio.ReadRecord(buf[cursor:])
			cursor += n
			return err
		}
		return nil
	})
}

// logfileRung appends every written payload to one log, flushing about
// once per 64 KiB chunk as a store's write buffer would, reads one
// earlier record back per read, and syncs at the end.
func (l *ladderRun) logfileRung(dir string) error {
	lg, err := logfile.CreateFS(l.fs, filepath.Join(dir, "ladder.log"), nil)
	if err != nil {
		return err
	}
	type loc struct {
		off int64
		n   int
	}
	var written []loc
	var payload []byte
	next, sinceFlush := 0, 0
	err = l.replay(func(op *backendOp) error {
		if op.isWrite() {
			payload = append(append(payload[:0], op.key...), op.val...)
			off, n, err := lg.Append(payload)
			written = append(written, loc{off, n})
			if sinceFlush += n; err == nil && sinceFlush >= 64<<10 {
				sinceFlush = 0
				err = lg.Flush()
			}
			return err
		}
		if next < len(written) {
			_, err := lg.ReadRecordAt(written[next].off, written[next].n)
			next++
			return err
		}
		return nil
	})
	if err == nil {
		err = lg.Sync()
	}
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	return err
}

// instanceRung replays against a single pattern store with one
// instance's share of the write buffer.
func (l *ladderRun) instanceRung(dir string) error {
	o := l.opts()
	buf := o.WriteBufferBytes / int64(o.Instances)
	var apply func(op *backendOp) error
	var closeStore func() error
	switch l.pattern {
	case core.PatternAAR:
		st, err := aar.Open(aar.Options{Dir: dir, WriteBufferBytes: buf, FS: l.fs})
		if err != nil {
			return err
		}
		closeStore = st.Destroy
		apply = func(op *backendOp) error {
			if op.kind == opAppend {
				return st.Append(op.key, op.val, op.w)
			}
			for {
				part, err := st.GetWindow(op.w)
				if err != nil || part == nil {
					return err
				}
			}
		}
	case core.PatternAUR:
		st, err := aur.Open(aur.Options{Dir: dir, WriteBufferBytes: buf, ReadBatchRatio: 0.02,
			Predictor: window.PredictorFor(l.assigner.Kind(), l.assigner), FS: l.fs})
		if err != nil {
			return err
		}
		closeStore = st.Destroy
		apply = func(op *backendOp) error {
			if op.kind == opAppend {
				return st.Append(op.key, op.val, op.w, op.ts)
			}
			_, err := st.Get(op.key, op.w)
			return err
		}
	default:
		st, err := rmw.Open(rmw.Options{Dir: dir, WriteBufferBytes: buf, FS: l.fs})
		if err != nil {
			return err
		}
		closeStore = st.Destroy
		apply = func(op *backendOp) error {
			if op.kind == opPutAgg {
				return st.Put(op.key, op.w, op.val)
			}
			_, _, err := st.Get(op.key, op.w)
			return err
		}
	}
	err := l.replay(apply)
	if cerr := closeStore(); err == nil {
		err = cerr
	}
	return err
}

// coreRung replays against the composite store (m instances).
func (l *ladderRun) coreRung(dir string) error {
	o := l.opts()
	o.Dir, o.Assigner = dir, l.assigner
	st, err := core.Open(l.agg, l.assigner.Kind(), o)
	if err != nil {
		return err
	}
	err = l.replay(func(op *backendOp) error {
		switch op.kind {
		case opAppend:
			return st.Append(op.key, op.val, op.w, op.ts)
		case opReadWindow:
			for {
				part, err := st.GetWindow(op.w)
				if err != nil || part == nil {
					return err
				}
			}
		case opReadAppended:
			_, err := st.Get(op.key, op.w)
			return err
		case opPutAgg:
			return st.PutAggregate(op.key, op.w, op.val)
		default:
			_, _, err := st.GetAggregate(op.key, op.w)
			return err
		}
	})
	if cerr := st.Destroy(); err == nil {
		err = cerr
	}
	return err
}

// backendRung replays through the statebackend adapter.
func (l *ladderRun) backendRung(dir string) error {
	b, err := statebackend.Open(statebackend.Config{
		Kind: statebackend.KindFlowKV, Dir: dir, Agg: l.agg, WindowKind: l.assigner.Kind(),
		Assigner: l.assigner, FlowKV: l.opts(),
	})
	if err != nil {
		return err
	}
	drop := func([]byte, [][]byte) error { return nil }
	err = l.replay(func(op *backendOp) error {
		var err error
		switch op.kind {
		case opAppend:
			err = b.Append(op.key, op.val, op.w, op.ts)
		case opReadWindow:
			_, err = b.ReadWindow(op.w, drop)
		case opReadAppended:
			_, err = b.ReadAppended(op.key, op.w)
		case opGetAgg:
			_, _, err = b.GetAgg(op.key, op.w)
		case opPutAgg:
			err = b.PutAgg(op.key, op.w, op.val)
		case opTakeAgg:
			_, _, err = b.TakeAgg(op.key, op.w)
		}
		return err
	})
	if cerr := b.Destroy(); err == nil {
		err = cerr
	}
	return err
}

// speRung runs the recorded tuples through the real pipeline.
func (l *ladderRun) speRung(dir string) error {
	q, err := l.w.build(l.qs, dir, l.fs, nil)
	if err != nil {
		return err
	}
	_, err = spe.Run(q.Pipeline, newBlockSource(l.blk, l.tuples).Emit, nil)
	return err
}

// jobRung runs them as a checkpointed job (eight commits).
func (l *ladderRun) jobRung(dir string) error {
	q, err := l.w.build(l.qs, filepath.Join(dir, "state"), l.fs, nil)
	if err != nil {
		return err
	}
	job := &spe.Job{Pipeline: q.Pipeline, Source: newBlockSource(l.blk, l.tuples),
		Dir: filepath.Join(dir, "job"), FS: l.fs, CheckpointEvery: int(l.tuples/8) + 1}
	_, err = job.Run()
	return err
}

// tenantRung runs the same job as a single jobmanager tenant with
// metered, non-binding quotas.
func (l *ladderRun) tenantRung(dir string) error {
	m, err := jobmanager.New(jobmanager.Options{Dir: filepath.Join(dir, "mgr"),
		Slots: []jobmanager.Slot{{ID: "slot0", Dir: filepath.Join(dir, "slot0"), FS: l.fs}}})
	if err != nil {
		return err
	}
	q, err := l.w.build(l.qs, "", l.fs, nil)
	if err != nil {
		return err
	}
	q.Pipeline.Stages[0].NewBackend = nil
	err = m.Submit(jobmanager.Tenant{
		ID: "ladder", Quota: jobmanager.Quota{IngestEPS: 1e9, WriteBPS: 1e12},
		Source: newBlockSource(l.blk, l.tuples), Pipeline: q.Pipeline,
		MakeBackend:     jobmanager.FlowKVBackend("ladder", l.agg, l.assigner.Kind(), l.assigner, l.opts()),
		CheckpointEvery: int(l.tuples/8) + 1,
	})
	if err != nil {
		return err
	}
	return m.Wait()["ladder"].Err
}

// RunLadder measures every rung for workload w. Workloads without a
// single store pattern (the tenant mix) have no ladder.
func RunLadder(w *Workload, blk *Block, root string, ops, repeats int) ([]LadderRung, error) {
	if len(w.Queries) != 1 {
		return nil, nil
	}
	qs := w.Queries[0]
	qs.Par = 1
	l := &ladderRun{w: w, qs: qs, blk: blk, root: filepath.Join(root, "ladder"), fs: newCountFS(faultfs.OS, nil)}
	defer os.RemoveAll(l.root)
	if err := l.record(ops); err != nil {
		return nil, fmt.Errorf("bench: ladder record: %w", err)
	}
	rungs := []func(string) error{l.binioRung, l.logfileRung, l.instanceRung, l.coreRung, l.backendRung, l.speRung, l.jobRung, l.tenantRung}
	var out []LadderRung
	for i, fn := range rungs {
		r, err := l.measure(ladderRungs[i], repeats, fn)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
