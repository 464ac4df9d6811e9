package spe

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Operator state snapshots. A job checkpoint must capture not just the
// backend's durable state but the window operator's in-memory control
// state — which windows are registered, where the watermark stands, which
// sessions are live — or a restored pipeline would re-create windows for
// replayed tuples without knowing which triggers are still owed. The
// snapshot is stored as the backend checkpoint's application metadata
// (core's APPMETA file), so it commits atomically with the store cut it
// describes.
//
// Only reconstructible scheduling structures are omitted: the aligned
// window heap is rebuilt from the registered window set, session timers
// re-arm from the live sessions, and custom-window timers re-arm at each
// window's end. Everything the omitted structures encode is derived from
// serialized state, so the restored operator fires the same triggers in
// the same order.
//
// The encoding is dense and canonical — one state, one byte string, which
// the decoder enforces — so an accepted snapshot re-encodes to itself:
//
//	magic, watermark, results, late drops, triggers fired
//	aligned:  window count, then per window in order: window, key set
//	sessions: the shortest window length among all sessions (L), then a
//	          key list; per key its session count, and per session
//	          cur.Start, cur's length - L and its initial count, and per
//	          initial its start - cur.Start and its length - L
//	custom:   key list; per key a window count, then per window in
//	          order: window, max tuple timestamp
//	counts:   key list; per key its element counter
//
// Key sets and key lists are putKeys lists: sorted keys, each
// prefix-compressed against the one before it. Relative session windows
// make an in-order session's initial — it starts where its session does
// and spans one gap — two bytes instead of two absolute timestamps.

// opSnapMagic versions the operator snapshot encoding.
const opSnapMagic = "flowkv-opsnap2\n"

// snapshotState serializes the operator's control state.
func (o *WindowOperator) snapshotState() []byte {
	b := []byte(opSnapMagic)
	b = binio.PutVarint(b, o.wm)
	b = binio.PutVarint(b, o.resultsEmitted)
	b = binio.PutVarint(b, o.lateDropped)
	b = binio.PutVarint(b, o.triggersFired)

	wins := sortedWindows(o.aligned)
	b = binio.PutUvarint(b, uint64(len(wins)))
	for _, w := range wins {
		b = putKeySet(w.AppendTo(b), o.aligned[w])
	}

	// The initials order is preserved: initials[0] identifies where the
	// incremental accumulator lives.
	shortest := shortestSession(o.sessions)
	b = binio.PutVarint(b, shortest)
	b = putKeys(b, sortedKeys(o.sessions), func(b []byte, k string) []byte {
		list := o.sessions[k]
		b = binio.PutUvarint(b, uint64(len(list)))
		for _, s := range list {
			b = binio.PutVarint(b, s.cur.Start)
			b = binio.PutUvarint(b, uint64(s.cur.Span()-shortest))
			b = binio.PutUvarint(b, uint64(len(s.initials)))
			for _, iw := range s.initials {
				b = binio.PutVarint(b, iw.Start-s.cur.Start)
				b = binio.PutUvarint(b, uint64(iw.Span()-shortest))
			}
		}
		return b
	})

	b = putKeys(b, sortedKeys(o.custom), func(b []byte, k string) []byte {
		set := o.custom[k]
		cwins := sortedWindows(set)
		b = binio.PutUvarint(b, uint64(len(cwins)))
		for _, w := range cwins {
			b = binio.PutVarint(w.AppendTo(b), set[w])
		}
		return b
	})

	return putKeys(b, sortedKeys(o.counts), func(b []byte, k string) []byte {
		return binio.PutVarint(b, o.counts[k])
	})
}

// shortestSession is the shortest length among all sessions' windows,
// current and initial; 0 when there are none.
func shortestSession(sessions map[string][]*session) int64 {
	var shortest int64
	first := true
	see := func(w window.Window) {
		if first || w.Span() < shortest {
			shortest, first = w.Span(), false
		}
	}
	for _, list := range sessions {
		for _, s := range list {
			see(s.cur)
			for _, iw := range s.initials {
				see(iw)
			}
		}
	}
	return shortest
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedWindows[V any](m map[window.Window]V) []window.Window {
	wins := make([]window.Window, 0, len(m))
	for w := range m {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Before(wins[j]) })
	return wins
}

// putKeys appends a key list: the number of keys, then each key of the
// sorted keys prefix-compressed against the one before it — the length of
// their common prefix, then the rest of the key — followed by whatever
// each (when not nil) appends for it.
func putKeys(b []byte, keys []string, each func(b []byte, k string) []byte) []byte {
	b = binio.PutUvarint(b, uint64(len(keys)))
	prev := ""
	for _, k := range keys {
		n := 0
		for n < len(prev) && n < len(k) && prev[n] == k[n] {
			n++
		}
		b = binio.PutUvarint(b, uint64(n))
		b = binio.PutString(b, k[n:])
		if each != nil {
			b = each(b, k)
		}
		prev = k
	}
	return b
}

// putKeySet appends a key set as a key list.
func putKeySet(b []byte, set map[string]struct{}) []byte {
	return putKeys(b, sortedKeys(set), nil)
}

// restoreState rebuilds the operator's control state from a snapshot.
// The operator must be freshly constructed; scheduling structures
// (aligned heap, session and custom-window timers) are re-derived from
// the decoded state.
func (o *WindowOperator) restoreState(b []byte) error {
	d := snapDecoder{b: b}
	if err := d.magic(opSnapMagic); err != nil {
		return err
	}
	o.wm = d.varint()
	o.resultsEmitted = d.varint()
	o.lateDropped = d.varint()
	o.triggersFired = d.varint()

	o.aligned = make(map[window.Window]map[string]struct{})
	o.alignedHeap = o.alignedHeap[:0]
	var prev window.Window
	for i, n := uint64(0), d.count(3); i < n && d.err == nil; i++ {
		w := d.nextWindow(prev, i)
		set := d.keySet()
		if d.err == nil {
			o.aligned[w] = set
			o.alignedHeap = append(o.alignedHeap, w)
		}
		prev = w
	}
	heap.Init(&o.alignedHeap)

	o.sessions = make(map[string][]*session)
	o.armedAt = make(map[string]int64)
	o.timers = o.timers[:0]
	shortest := d.varint()
	d.keys(func(key string) {
		var list []*session
		for n := d.count(3); n > 0 && d.err == nil; n-- {
			start := d.varint()
			s := &session{cur: window.Window{Start: start, End: start + shortest + int64(d.uvarint())}}
			for in := d.count(2); in > 0 && d.err == nil; in-- {
				is := start + d.varint()
				s.initials = append(s.initials, window.Window{Start: is, End: is + shortest + int64(d.uvarint())})
			}
			list = append(list, s)
		}
		o.sessions[key] = list
	})
	if d.err == nil && shortestSession(o.sessions) != shortest {
		d.fail("the shortest session length is not the recorded one")
	}

	o.custom = make(map[string]map[window.Window]int64)
	d.keys(func(key string) {
		set := make(map[window.Window]int64)
		var prev window.Window
		for i, n := uint64(0), d.count(3); i < n && d.err == nil; i++ {
			w := d.nextWindow(prev, i)
			set[w] = d.varint()
			heap.Push(&o.timers, timerEntry{at: w.End, key: key, w: w})
			prev = w
		}
		o.custom[key] = set
	})

	o.counts = make(map[string]int64)
	d.keys(func(key string) { o.counts[key] = d.varint() })
	if err := d.finish(); err != nil {
		return fmt.Errorf("spe: corrupt operator snapshot: %w", err)
	}
	// Re-arm one session timer per key, exactly as live ingestion would.
	for key := range o.sessions {
		o.armSession(key)
	}
	return nil
}

// errPaddedVarint reports a varint encoded in more bytes than it needs —
// never written by an encoder here, and what would let two byte strings
// decode to one state.
var errPaddedVarint = errors.New("padded varint")

// snapDecoder is a cursor over snapshot bytes that latches the first
// decode error, keeping the happy path free of per-field error plumbing.
// It accepts only minimal varints, and bounds every count by the bytes
// left, so a corrupt input can neither loop nor allocate past its length.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) magic(m string) error {
	if len(d.b) < len(m) || string(d.b[:len(m)]) != m {
		return fmt.Errorf("spe: not an operator snapshot (bad magic)")
	}
	d.b = d.b[len(m):]
	return nil
}

// fail latches a decode error unless one is already latched.
func (d *snapDecoder) fail(why string) {
	if d.err == nil {
		d.err = errors.New(why)
	}
}

// finish reports the latched error, or trailing bytes past the snapshot.
func (d *snapDecoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// advance consumes the n bytes a varint decode took, rejecting a padded
// one (a final byte of zero after a continuation byte).
func (d *snapDecoder) advance(n int, err error) bool {
	if err == nil && n > 1 && d.b[n-1] == 0 {
		err = errPaddedVarint
	}
	if err != nil {
		d.err = err
		return false
	}
	d.b = d.b[n:]
	return true
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n, err := binio.Varint(d.b)
	if !d.advance(n, err) {
		return 0
	}
	return v
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := binio.Uvarint(d.b)
	if !d.advance(n, err) {
		return 0
	}
	return v
}

// count decodes an element count, each element taking at least min
// bytes: a count the bytes left cannot hold fails.
func (d *snapDecoder) count(min int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/min) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return n
}

// bytes decodes a length-prefixed byte string, aliasing the input.
func (d *snapDecoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *snapDecoder) str() string { return string(d.bytes()) }

func (d *snapDecoder) window() window.Window {
	return window.Window{Start: d.varint(), End: d.varint()}
}

// nextWindow decodes the i-th window of a list that must ascend strictly
// after prev, the one before it.
func (d *snapDecoder) nextWindow(prev window.Window, i uint64) window.Window {
	w := d.window()
	if i > 0 && !prev.Before(w) {
		d.fail(fmt.Sprintf("window %v out of order after %v", w, prev))
	}
	return w
}

// keys decodes a putKeys list, calling each for every key in order, and
// stops at the first error. Keys must ascend strictly, and each must
// share exactly its recorded prefix with the one before it.
func (d *snapDecoder) keys(each func(k string)) {
	prev := ""
	for i, n := uint64(0), d.count(2); i < n && d.err == nil; i++ {
		shared := d.uvarint()
		suffix := d.bytes()
		if d.err != nil {
			return
		}
		if shared > uint64(len(prev)) || len(suffix) > 0 && shared < uint64(len(prev)) && prev[shared] == suffix[0] {
			d.fail(fmt.Sprintf("key %d does not share %d bytes with its predecessor", i, shared))
			return
		}
		k := prev[:shared] + string(suffix)
		if i > 0 && k <= prev {
			d.fail(fmt.Sprintf("key %q out of order after %q", k, prev))
			return
		}
		each(k)
		prev = k
	}
}

// keySet decodes a key set written by putKeySet.
func (d *snapDecoder) keySet() map[string]struct{} {
	set := make(map[string]struct{})
	d.keys(func(k string) { set[k] = struct{}{} })
	return set
}
