package spe

import (
	"container/heap"
	"fmt"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// Side labels the two inputs of a two-stream join.
type Side byte

// Join sides.
const (
	Left  Side = 'L'
	Right Side = 'R'
)

// IntervalJoinSpec describes an event-time interval join (the paper's §8
// "interval join operations" extension): for every left tuple a and right
// tuple b sharing a key, a joins b iff
//
//	a.TS + Lower <= b.TS <= a.TS + Upper.
//
// Both sides buffer their tuples in windowed state, bucketed into fixed
// time buckets so expiry is a whole-bucket drop — the coarse-grained
// cleanup FlowKV's layouts are good at. Probes use non-destructive reads
// (Backend.PeekAppended).
type IntervalJoinSpec struct {
	// Lower and Upper are the relative bounds in ms; Lower <= Upper.
	Lower, Upper int64
	// BucketMs sizes the state buckets. Default max(Upper-Lower, 1).
	BucketMs int64
	// SideOf classifies an input tuple; its value payload is buffered.
	SideOf func(t Tuple) Side
	// Join combines one matched pair into an output value; returning nil
	// emits nothing for the pair.
	Join func(key, leftVal, rightVal []byte, leftTS, rightTS int64) []byte
}

// Validate checks the spec is well-formed.
func (s *IntervalJoinSpec) Validate() error {
	if s.Lower > s.Upper {
		return fmt.Errorf("spe: interval join: Lower > Upper")
	}
	if s.SideOf == nil || s.Join == nil {
		return fmt.Errorf("spe: interval join: SideOf and Join are required")
	}
	return nil
}

func (s *IntervalJoinSpec) bucketMs() int64 {
	if s.BucketMs > 0 {
		return s.BucketMs
	}
	if d := s.Upper - s.Lower; d > 0 {
		return d
	}
	return 1
}

// IntervalJoinOperator executes an interval join on one key partition.
// Each side's tuples are appended to (side-prefixed key, time bucket)
// state; an arriving tuple probes the opposite side's overlapping
// buckets, and buckets are dropped wholesale once the watermark passes
// their retention horizon.
type IntervalJoinOperator struct {
	spec    IntervalJoinSpec
	backend statebackend.Backend
	emit    func(Tuple)
	wm      int64

	// Per-side live bucket registries and expiry heaps. Buckets are
	// tracked per key so expiry can Drop each (key, bucket) state.
	buckets map[Side]map[window.Window]map[string]struct{}
	expiry  map[Side]*windowHeap

	results int64
	late    int64
}

// NewIntervalJoinOperator builds a join operator over the given backend.
// The backend must support appended state with non-destructive reads; a
// FlowKV backend should be opened as holistic + custom windows (AUR).
func NewIntervalJoinOperator(spec IntervalJoinSpec, backend statebackend.Backend, emit func(Tuple)) (*IntervalJoinOperator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	o := &IntervalJoinOperator{
		spec:    spec,
		backend: backend,
		emit:    emit,
		wm:      -1 << 62,
		buckets: map[Side]map[window.Window]map[string]struct{}{
			Left:  make(map[window.Window]map[string]struct{}),
			Right: make(map[window.Window]map[string]struct{}),
		},
		expiry: map[Side]*windowHeap{Left: {}, Right: {}},
	}
	return o, nil
}

// Backend returns the operator's state backend.
func (o *IntervalJoinOperator) Backend() statebackend.Backend { return o.backend }

// setBackend replaces the operator's state backend. Live migration uses
// it after rebuilding a worker's store under an aligned barrier; the
// caller guarantees the worker goroutine is parked while it runs.
func (o *IntervalJoinOperator) setBackend(b statebackend.Backend) { o.backend = b }

func (o *IntervalJoinOperator) bucketOf(ts int64) window.Window {
	b := o.spec.bucketMs()
	start := ts / b * b
	if ts < 0 && ts%b != 0 {
		start -= b
	}
	return window.Window{Start: start, End: start + b}
}

// sideKey prefixes the user key with the side tag so both sides share one
// backend instance without colliding.
func sideKey(side Side, key []byte) []byte {
	out := make([]byte, 0, len(key)+1)
	out = append(out, byte(side))
	return append(out, key...)
}

// sideKeyUser recovers the user key from a side-prefixed backend key.
// Anything that routes join state by key hash (worker assignment,
// rescale re-routing) must hash the user key, not the tagged one —
// 'L'+k and k hash to different workers.
func sideKeyUser(k []byte) []byte {
	if len(k) > 0 {
		return k[1:]
	}
	return k
}

// encJoinVal prepends the tuple timestamp to the buffered payload so
// probes can apply the exact interval bounds inside a bucket.
func encJoinVal(ts int64, payload []byte) []byte {
	out := binio.PutVarint(nil, ts)
	return append(out, payload...)
}

func decJoinVal(v []byte) (ts int64, payload []byte, err error) {
	ts, n, err := binio.Varint(v)
	if err != nil {
		return 0, nil, err
	}
	return ts, v[n:], nil
}

// OnTuple buffers the tuple on its side and probes the opposite side.
func (o *IntervalJoinOperator) OnTuple(t Tuple) error {
	side := o.spec.SideOf(t)
	if side != Left && side != Right {
		return fmt.Errorf("spe: interval join: bad side %q", side)
	}
	if t.TS < o.wm {
		o.late++
		return nil
	}
	// Buffer.
	bucket := o.bucketOf(t.TS)
	reg := o.buckets[side]
	keys := reg[bucket]
	if keys == nil {
		keys = make(map[string]struct{})
		reg[bucket] = keys
		heap.Push(o.expiry[side], bucket)
	}
	keys[string(t.Key)] = struct{}{}
	if err := o.backend.Append(sideKey(side, t.Key), encJoinVal(t.TS, t.Value), bucket, t.TS); err != nil {
		return err
	}
	// Probe the opposite side: the matching timestamp range.
	var lo, hi int64
	var other Side
	if side == Left {
		other = Right
		lo, hi = t.TS+o.spec.Lower, t.TS+o.spec.Upper
	} else {
		other = Left
		lo, hi = t.TS-o.spec.Upper, t.TS-o.spec.Lower
	}
	b := o.spec.bucketMs()
	for bs := o.bucketOf(lo).Start; bs <= hi; bs += b {
		probe := window.Window{Start: bs, End: bs + b}
		if reg := o.buckets[other][probe]; reg != nil {
			if _, ok := reg[string(t.Key)]; !ok {
				continue
			}
		} else {
			continue
		}
		vals, err := o.backend.PeekAppended(sideKey(other, t.Key), probe)
		if err != nil {
			return err
		}
		for _, v := range vals {
			ots, payload, err := decJoinVal(v)
			if err != nil {
				return err
			}
			if ots < lo || ots > hi {
				continue
			}
			var out []byte
			if side == Left {
				out = o.spec.Join(t.Key, t.Value, payload, t.TS, ots)
			} else {
				out = o.spec.Join(t.Key, payload, t.Value, ots, t.TS)
			}
			if out != nil {
				ts := t.TS
				if ots > ts {
					ts = ots
				}
				o.results++
				o.emit(Tuple{Key: t.Key, Value: out, TS: ts, WallNS: t.WallNS})
			}
		}
	}
	return nil
}

// OnWatermark expires buckets that can no longer join: a left tuple a is
// dead once wm > a.TS + Upper; a right tuple b once wm > b.TS - Lower.
func (o *IntervalJoinOperator) OnWatermark(wm int64, _ int64) error {
	if wm <= o.wm {
		return nil
	}
	o.wm = wm
	if err := o.expire(Left, wm-o.spec.Upper); err != nil {
		return err
	}
	return o.expire(Right, wm+o.spec.Lower)
}

// expire drops every bucket of side whose end is <= horizon.
func (o *IntervalJoinOperator) expire(side Side, horizon int64) error {
	h := o.expiry[side]
	for h.Len() > 0 && (*h)[0].End <= horizon {
		bucket := heap.Pop(h).(window.Window)
		keys := o.buckets[side][bucket]
		delete(o.buckets[side], bucket)
		for k := range keys {
			if err := o.backend.DropAppended(sideKey(side, []byte(k)), bucket); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finish drops all remaining state (end of stream: no more matches).
func (o *IntervalJoinOperator) Finish(int64) error {
	return o.OnWatermark(window.MaxTime, 0)
}

// joinSnapMagic versions the interval-join operator snapshot encoding.
const joinSnapMagic = "flowkv-joinsnap2\n"

// snapshotState serializes the join operator's control state: the
// watermark, the counters, and both sides' live bucket registries — per
// side a bucket count, then per bucket in order the bucket window and its
// key set (putKeySet, as the window operator's aligned windows); the
// expiry heaps are re-derived on restore. No emitted-pair frontier is
// needed: snapshots are taken at aligned barriers, where every
// pre-barrier emission is already committed in the sink ledger, and a
// replay from the barrier regenerates exactly the post-barrier pairs
// (expiry never removes a value that could still match a future tuple,
// so probes see the same state they saw live).
func (o *IntervalJoinOperator) snapshotState() []byte {
	b := []byte(joinSnapMagic)
	b = binio.PutVarint(b, o.wm)
	b = binio.PutVarint(b, o.results)
	b = binio.PutVarint(b, o.late)
	for _, side := range []Side{Left, Right} {
		reg := o.buckets[side]
		wins := sortedWindows(reg)
		b = binio.PutUvarint(b, uint64(len(wins)))
		for _, w := range wins {
			b = putKeySet(w.AppendTo(b), reg[w])
		}
	}
	return b
}

// restoreState rebuilds the join operator's control state from a
// snapshot. Join snapshots claim no store identities (claimsIdentities),
// so ids is nil; the expiry heaps are rebuilt from the bucket registries.
func (o *IntervalJoinOperator) restoreState(b []byte, _ []core.Identity) error {
	d := snapDecoder{b: b}
	if err := d.magic(joinSnapMagic); err != nil {
		return err
	}
	o.wm = d.varint()
	o.results = d.varint()
	o.late = d.varint()
	o.buckets = map[Side]map[window.Window]map[string]struct{}{
		Left:  make(map[window.Window]map[string]struct{}),
		Right: make(map[window.Window]map[string]struct{}),
	}
	for _, side := range []Side{Left, Right} {
		var prev window.Window
		for i, n := uint64(0), d.count(3); i < n && d.err == nil; i++ {
			w := d.nextWindow(prev, i)
			set := d.keySet()
			if d.err == nil {
				o.buckets[side][w] = set
			}
			prev = w
		}
	}
	if err := d.finish(); err != nil {
		return fmt.Errorf("%w (join): %v", ErrCorruptSnapshot, err)
	}
	o.rearm()
	return nil
}

// claimsIdentities is false: the join's buckets are registered by window,
// not by the identities of its side-tagged store keys.
func (o *IntervalJoinOperator) claimsIdentities() bool { return false }

// adopt installs the bucket registries, watermark and counters of from,
// a shell regrouped in memory (regroup), and rebuilds the expiry heaps.
func (o *IntervalJoinOperator) adopt(from opSnapshotter) {
	f := from.(*IntervalJoinOperator)
	o.wm, o.results, o.late, o.buckets = f.wm, f.results, f.late, f.buckets
	o.rearm()
}

// rearm rebuilds both sides' expiry heaps from the bucket registries.
func (o *IntervalJoinOperator) rearm() {
	o.expiry = map[Side]*windowHeap{Left: {}, Right: {}}
	for _, side := range []Side{Left, Right} {
		for _, w := range sortedWindows(o.buckets[side]) {
			heap.Push(o.expiry[side], w)
		}
	}
}

// JoinStats reports the operator's counters.
type JoinStats struct {
	// Results counts emitted joined pairs.
	Results int64
	// LateDropped counts tuples dropped as late.
	LateDropped int64
}

// Stats returns the operator's counters.
func (o *IntervalJoinOperator) Stats() JoinStats {
	return JoinStats{Results: o.results, LateDropped: o.late}
}
