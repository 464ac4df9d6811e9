package spe

import (
	"container/heap"
	"fmt"
	"sort"

	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// WindowOperator is one physical window operator worker: it owns a state
// backend instance, assigns tuples to windows, maintains event-time
// timers, and fires triggers as the watermark advances. It is driven by a
// single goroutine.
type WindowOperator struct {
	spec    OperatorSpec
	backend statebackend.Backend
	emit    func(Tuple)
	kind    window.Kind
	wm      int64

	// Aligned windows (fixed/sliding/global): a shared trigger per
	// window, plus the window's key set for backends without bulk reads
	// and for incremental (per-key) aggregates.
	aligned     map[window.Window]map[string]struct{}
	alignedHeap windowHeap

	// Session windows: per-key merged sessions plus one armed timer per
	// key (re-armed on pop), so the timer heap stays proportional to the
	// number of live keys rather than the number of session extensions.
	sessions map[string][]*session
	armedAt  map[string]int64

	// Custom (unknown) windows: per (key, window) registration holding
	// the window's maximum tuple timestamp (fed to the ETT profiler).
	custom map[string]map[window.Window]int64

	timers timerHeap

	// Count windows: per-key element counters.
	counts map[string]int64

	// Evaluation counters.
	resultsEmitted int64
	lateDropped    int64
	triggersFired  int64
}

// session is one live session window of a key. cur is the merged
// boundary; initials are the fixed initial boundaries under which state
// was stored (§4.2: FlowKV identifies AUR state by the initial window
// boundary). Incremental aggregation migrates state so only initials[0]
// holds the accumulator; holistic aggregation reads all of them at
// trigger time.
type session struct {
	cur      window.Window
	initials []window.Window
}

type timerEntry struct {
	at  int64
	key string
	w   window.Window // custom windows; zero for sessions
}

type timerHeap []timerEntry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type windowHeap []window.Window

func (h windowHeap) Len() int           { return len(h) }
func (h windowHeap) Less(i, j int) bool { return h[i].End < h[j].End }
func (h windowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *windowHeap) Push(x any)        { *h = append(*h, x.(window.Window)) }
func (h *windowHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// NewWindowOperator builds an operator worker over the given backend.
func NewWindowOperator(spec OperatorSpec, backend statebackend.Backend, emit func(Tuple)) (*WindowOperator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &WindowOperator{
		spec:     spec,
		backend:  backend,
		emit:     emit,
		kind:     spec.Assigner.Kind(),
		wm:       -1 << 62,
		aligned:  make(map[window.Window]map[string]struct{}),
		sessions: make(map[string][]*session),
		armedAt:  make(map[string]int64),
		custom:   make(map[string]map[window.Window]int64),
		counts:   make(map[string]int64),
	}, nil
}

// Backend returns the operator's state backend (for stats collection).
func (o *WindowOperator) Backend() statebackend.Backend { return o.backend }

// setBackend replaces the operator's state backend. Live migration uses
// it after rebuilding a worker's store under an aligned barrier; the
// caller guarantees the worker goroutine is parked while it runs.
func (o *WindowOperator) setBackend(b statebackend.Backend) { o.backend = b }

// OnTuple processes one input tuple.
func (o *WindowOperator) OnTuple(t Tuple) error {
	switch o.kind {
	case window.Session:
		return o.onSessionTuple(t)
	case window.Count:
		return o.onCountTuple(t)
	case window.Custom:
		return o.onCustomTuple(t)
	default:
		return o.onAlignedTuple(t)
	}
}

func (o *WindowOperator) addState(t Tuple, w window.Window) error {
	if o.spec.IsHolistic() {
		return o.backend.Append(t.Key, t.Value, w, t.TS)
	}
	acc, ok, err := o.backend.GetAgg(t.Key, w)
	if err != nil {
		return err
	}
	if !ok {
		acc = nil
	}
	acc = o.spec.Incremental.Add(acc, t)
	return o.backend.PutAgg(t.Key, w, acc)
}

func (o *WindowOperator) onAlignedTuple(t Tuple) error {
	for _, w := range o.spec.Assigner.Assign(t.TS) {
		if w.End <= o.wm {
			o.lateDropped++
			continue
		}
		set := o.aligned[w]
		if set == nil {
			set = make(map[string]struct{})
			o.aligned[w] = set
			heap.Push(&o.alignedHeap, w)
		}
		set[string(t.Key)] = struct{}{}
		if err := o.addState(t, w); err != nil {
			return err
		}
	}
	return nil
}

func (o *WindowOperator) onSessionTuple(t Tuple) error {
	sa, ok := o.spec.Assigner.(window.SessionAssigner)
	if !ok {
		return fmt.Errorf("spe: session operator requires SessionAssigner")
	}
	if t.TS < o.wm {
		o.lateDropped++
		return nil
	}
	key := string(t.Key)
	proto := window.Window{Start: t.TS, End: t.TS + sa.Gap}

	// Merge the proto window with every overlapping session of the key.
	var absorbed []*session
	var kept []*session
	merged := proto
	for _, s := range o.sessions[key] {
		if s.cur.Overlaps(merged) {
			absorbed = append(absorbed, s)
			merged = merged.Cover(s.cur)
		} else {
			kept = append(kept, s)
		}
	}
	var cur *session
	switch {
	case len(absorbed) == 0:
		cur = &session{cur: merged, initials: []window.Window{proto}}
	case o.spec.IsHolistic():
		// Union the constituents' initial windows; state stays put.
		cur = &session{cur: merged}
		for _, s := range absorbed {
			cur.initials = append(cur.initials, s.initials...)
		}
	case len(absorbed) == 1:
		// The tuple extends one session: its accumulator already sits
		// under the session's initial window, where addState updates it.
		cur = &session{cur: merged, initials: absorbed[0].initials[:1]}
	default:
		// Migrate accumulators into the earliest constituent's initial.
		sort.Slice(absorbed, func(i, j int) bool { return absorbed[i].cur.Before(absorbed[j].cur) })
		cur = &session{cur: merged, initials: absorbed[0].initials[:1]}
		var acc []byte
		haveAcc := false
		for _, s := range absorbed {
			a, ok, err := o.backend.TakeAgg(t.Key, s.initials[0])
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if !haveAcc {
				acc, haveAcc = a, true
			} else {
				acc = o.spec.Incremental.Merge(acc, a)
			}
		}
		if haveAcc {
			if err := o.backend.PutAgg(t.Key, cur.initials[0], acc); err != nil {
				return err
			}
		}
	}
	o.sessions[key] = append(kept, cur)
	o.armSession(key)
	return o.addState(t, cur.initials[0])
}

// armSession ensures one timer is scheduled at the earliest end among the
// key's sessions. Extensions that move ends later re-arm lazily when the
// stale timer pops, so the heap does not grow per tuple.
func (o *WindowOperator) armSession(key string) {
	list := o.sessions[key]
	if len(list) == 0 {
		delete(o.armedAt, key)
		return
	}
	min := list[0].cur.End
	for _, s := range list[1:] {
		if s.cur.End < min {
			min = s.cur.End
		}
	}
	if cur, ok := o.armedAt[key]; !ok || min < cur {
		heap.Push(&o.timers, timerEntry{at: min, key: key})
		o.armedAt[key] = min
	}
}

func (o *WindowOperator) onCountTuple(t Tuple) error {
	ca, ok := o.spec.Assigner.(window.CountAssigner)
	if !ok {
		return fmt.Errorf("spe: count operator requires CountAssigner")
	}
	key := string(t.Key)
	seq := o.counts[key]
	o.counts[key] = seq + 1
	w := ca.AssignNth(seq)
	if err := o.addState(t, w); err != nil {
		return err
	}
	if (seq+1)%ca.Size == 0 {
		// The window is complete: trigger immediately.
		return o.fireKeyWindow(t.Key, w, t.TS, t.WallNS)
	}
	return nil
}

func (o *WindowOperator) onCustomTuple(t Tuple) error {
	for _, w := range o.spec.Assigner.Assign(t.TS) {
		if w.End <= o.wm {
			o.lateDropped++
			continue
		}
		key := string(t.Key)
		set := o.custom[key]
		if set == nil {
			set = make(map[window.Window]int64)
			o.custom[key] = set
		}
		if maxTS, seen := set[w]; !seen {
			set[w] = t.TS
			heap.Push(&o.timers, timerEntry{at: w.End, key: key, w: w})
		} else if t.TS > maxTS {
			set[w] = t.TS
		}
		if err := o.addState(t, w); err != nil {
			return err
		}
	}
	return nil
}

// OnWatermark advances event time and fires every due trigger. wallNS is
// the wall clock carried by the watermark; it stamps emitted results so
// the sink can measure latency.
func (o *WindowOperator) OnWatermark(wm int64, wallNS int64) error {
	if wm <= o.wm {
		return nil
	}
	o.wm = wm

	// Aligned windows fire when the watermark passes their end.
	for o.alignedHeap.Len() > 0 && o.alignedHeap[0].End <= wm {
		w := heap.Pop(&o.alignedHeap).(window.Window)
		if err := o.fireAligned(w, wallNS); err != nil {
			return err
		}
	}
	// Per-key timers (sessions and custom windows).
	for o.timers.Len() > 0 && o.timers[0].at <= wm {
		e := heap.Pop(&o.timers).(timerEntry)
		if e.w != (window.Window{}) {
			if err := o.fireCustom(e, wallNS); err != nil {
				return err
			}
			continue
		}
		if err := o.fireSessionTimer(e, wallNS); err != nil {
			return err
		}
	}
	return nil
}

// resultTS is the event time of a window's results: its last instant,
// w.End-1 (for count windows, the last tuple's timestamp).
func resultTS(w window.Window) int64 { return w.End - 1 }

func (o *WindowOperator) fireAligned(w window.Window, wallNS int64) error {
	keys := o.aligned[w]
	delete(o.aligned, w)
	o.triggersFired++
	ts := resultTS(w)

	if o.spec.IsHolistic() {
		// Bulk window read when the backend supports it; the same key may
		// arrive in several partitions (gradual loading), so groups merge
		// before the holistic function runs.
		groups := make(map[string][][]byte, len(keys))
		ok, err := o.backend.ReadWindow(w, func(key []byte, values [][]byte) error {
			groups[string(key)] = append(groups[string(key)], values...)
			return nil
		})
		if err != nil {
			return err
		}
		if !ok {
			for key := range keys {
				vals, err := o.backend.ReadAppended([]byte(key), w)
				if err != nil {
					return err
				}
				if vals != nil {
					groups[key] = vals
				}
			}
		}
		names := make([]string, 0, len(groups))
		for k := range groups {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if out := o.spec.Holistic.Result([]byte(k), groups[k]); out != nil {
				o.send(Tuple{Key: []byte(k), Value: out, TS: ts, WallNS: wallNS})
			}
		}
		return nil
	}

	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		acc, ok, err := o.backend.TakeAgg([]byte(k), w)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if out := o.spec.Incremental.Result(acc); out != nil {
			o.send(Tuple{Key: []byte(k), Value: out, TS: ts, WallNS: wallNS})
		}
	}
	return nil
}

func (o *WindowOperator) fireSessionTimer(e timerEntry, wallNS int64) error {
	if o.armedAt[e.key] != e.at {
		return nil // superseded by an earlier re-arm
	}
	delete(o.armedAt, e.key)
	// Fire every due session of the key, then re-arm for the rest.
	list := o.sessions[e.key]
	kept := list[:0:0]
	var due []*session
	for _, s := range list {
		if s.cur.End <= o.wm {
			due = append(due, s)
		} else {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		delete(o.sessions, e.key)
	} else {
		o.sessions[e.key] = kept
	}
	for _, s := range due {
		if err := o.fireSession([]byte(e.key), s, wallNS); err != nil {
			return err
		}
	}
	o.armSession(e.key)
	return nil
}

func (o *WindowOperator) fireSession(key []byte, s *session, wallNS int64) error {
	o.triggersFired++
	ts := resultTS(s.cur)
	if o.spec.IsHolistic() {
		initials := append([]window.Window(nil), s.initials...)
		sort.Slice(initials, func(i, j int) bool { return initials[i].Before(initials[j]) })
		var values [][]byte
		for _, iw := range initials {
			vals, err := o.backend.ReadAppended(key, iw)
			if err != nil {
				return err
			}
			values = append(values, vals...)
		}
		if len(values) == 0 {
			return nil
		}
		if out := o.spec.Holistic.Result(key, values); out != nil {
			o.send(Tuple{Key: key, Value: out, TS: ts, WallNS: wallNS})
		}
		return nil
	}
	acc, ok, err := o.backend.TakeAgg(key, s.initials[0])
	if err != nil || !ok {
		return err
	}
	if out := o.spec.Incremental.Result(acc); out != nil {
		o.send(Tuple{Key: key, Value: out, TS: ts, WallNS: wallNS})
	}
	return nil
}

func (o *WindowOperator) fireCustom(e timerEntry, wallNS int64) error {
	set := o.custom[e.key]
	if set == nil {
		return nil
	}
	maxTS, ok := set[e.w]
	if !ok {
		return nil
	}
	delete(set, e.w)
	if len(set) == 0 {
		delete(o.custom, e.key)
	}
	if o.spec.Profiler != nil {
		// Runtime profiling (paper §8): report the observed trigger so
		// FlowKV can learn ETTs for this custom window function.
		o.spec.Profiler.ObserveTrigger(e.w, maxTS, e.at)
	}
	return o.fireKeyWindow([]byte(e.key), e.w, resultTS(e.w), wallNS)
}

// fireKeyWindow triggers one (key, window) state (count/custom windows).
func (o *WindowOperator) fireKeyWindow(key []byte, w window.Window, ts int64, wallNS int64) error {
	o.triggersFired++
	if o.spec.IsHolistic() {
		vals, err := o.backend.ReadAppended(key, w)
		if err != nil {
			return err
		}
		if vals == nil {
			return nil
		}
		if out := o.spec.Holistic.Result(key, vals); out != nil {
			o.send(Tuple{Key: key, Value: out, TS: ts, WallNS: wallNS})
		}
		return nil
	}
	acc, ok, err := o.backend.TakeAgg(key, w)
	if err != nil || !ok {
		return err
	}
	if out := o.spec.Incremental.Result(acc); out != nil {
		o.send(Tuple{Key: key, Value: out, TS: ts, WallNS: wallNS})
	}
	return nil
}

func (o *WindowOperator) send(t Tuple) {
	o.resultsEmitted++
	o.emit(t)
}

// Finish fires every remaining window: the final watermark plus partial
// count windows (end-of-stream flush).
func (o *WindowOperator) Finish(wallNS int64) error {
	if o.kind == window.Count {
		ca := o.spec.Assigner.(window.CountAssigner)
		keys := make([]string, 0, len(o.counts))
		for k := range o.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			seq := o.counts[k]
			if seq%ca.Size == 0 {
				continue // no partial window
			}
			w := ca.AssignNth(seq - 1)
			if err := o.fireKeyWindow([]byte(k), w, seq-1, wallNS); err != nil {
				return err
			}
		}
		o.counts = make(map[string]int64)
	}
	return o.OnWatermark(window.MaxTime, wallNS)
}

// OperatorStats reports an operator worker's counters.
type OperatorStats struct {
	// ResultsEmitted counts emitted result tuples.
	ResultsEmitted int64
	// LateDropped counts tuples dropped as late.
	LateDropped int64
	// TriggersFired counts window triggers.
	TriggersFired int64
}

// Stats returns the operator's counters.
func (o *WindowOperator) Stats() OperatorStats {
	return OperatorStats{
		ResultsEmitted: o.resultsEmitted,
		LateDropped:    o.lateDropped,
		TriggersFired:  o.triggersFired,
	}
}
