package spe

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/window"
)

// Operator state snapshots. A job checkpoint must capture not just the
// backend's durable state but the window operator's in-memory control
// state — which windows are registered, where the watermark stands, which
// sessions are live — or a restored pipeline would re-create windows for
// replayed tuples without knowing which triggers are still owed. The
// snapshot is stored as the backend checkpoint's application metadata
// (the appmeta section of core's CUT file), so it commits atomically with the store cut it
// describes.
//
// Only reconstructible scheduling structures are omitted: the aligned
// window heap is rebuilt from the registered window set, session timers
// re-arm from the live sessions, and custom-window timers re-arm at each
// window's end. Everything the omitted structures encode is derived from
// serialized state, so the restored operator fires the same triggers in
// the same order.
//
// Sessions are named by the store's identities. Every initial window of
// every session is one (key, window) identity of the AUR or RMW store the
// operator writes (§4.2), and the cut holds each of them; so the snapshot
// writes only what the store cannot know, against the identities sorted
// by core.CompareIdentities — each identity's position in that list is
// its ordinal. A session is its first initial's identity (its primary);
// an identity that is no session's further initial is the primary of a
// session whose merged window is its own, the session of a single tuple,
// which costs no byte. Restore decodes against the identities the
// restored store lists and fails with ErrSnapshotMismatch unless the two
// agree exactly.
//
// The encoding is dense and canonical — one state and one identity list,
// one byte string, which the decoder enforces — so an accepted snapshot
// re-encodes to itself:
//
//	magic, watermark, results, late drops, triggers fired
//	aligned:  window count, then per window in order: window, key set
//	sessions: identity count N; when N > 0, the CRC-32C of the
//	          identity list, then three lists, each a count and entries
//	          in ascending order, an entry's first field the gap to the
//	          one before it (the first entry's: its ordinal):
//	          further initials, per session with more than one: its
//	          primary's ordinal, the count of further initials, and each
//	          one's ordinal less the one before it (the primary's first);
//	          extended, per session whose merged window cur differs from
//	          its primary's window w: its ordinal among the sessions,
//	          cur.Start - w.Start, cur.End - w.End;
//	          orders, per key whose session list is not in primary order:
//	          its ordinal among the keys, then per list position the
//	          session's rank in primary order
//	custom:   key list; per key a window count, then per window in
//	          order: window, max tuple timestamp
//	counts:   key list; per key its element counter
//
// Key sets and key lists are putKeys lists: sorted keys, each
// prefix-compressed against the one before it.

// opSnapMagic versions the operator snapshot encoding.
const opSnapMagic = "flowkv-opsnap3\n"

// ErrCorruptSnapshot reports operator snapshot bytes that do not decode:
// a bad magic (an encoding this build does not read), a malformed field
// or trailing bytes.
var ErrCorruptSnapshot = errors.New("spe: corrupt operator snapshot")

// ErrSnapshotMismatch reports a window operator snapshot whose session
// section does not describe the store identities it is restored against:
// another identity count or list, an ordinal past the end of the list,
// an identity claimed twice, or a non-canonical entry. The appmeta and
// the cut it was restored with disagree, and the restore fails rather
// than run on a registry that does not match the store.
var ErrSnapshotMismatch = errors.New("spe: operator snapshot does not match the store's identities")

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

	b = o.putSessions(b)

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

// claim is one initial window of one session: initials[i] of s, under key.
type claim struct {
	id core.Identity
	s  *session
	i  int
}

// sessionClaims returns every initial of every session as an identity,
// sorted by core.CompareIdentities: the identities the operator's store
// holds for its sessions.
func (o *WindowOperator) sessionClaims() []claim {
	n := 0
	for _, list := range o.sessions {
		for _, s := range list {
			n += len(s.initials)
		}
	}
	claims := make([]claim, 0, n)
	for k, list := range o.sessions {
		for _, s := range list {
			for i, iw := range s.initials {
				claims = append(claims, claim{core.Identity{Key: k, Window: iw}, s, i})
			}
		}
	}
	slices.SortFunc(claims, func(a, b claim) int { return core.CompareIdentities(a.id, b.id) })
	return claims
}

// identityCRC is the CRC-32C of an identity list: per identity its key
// (length-prefixed) and window.
func identityCRC(n int, at func(i int) core.Identity) uint32 {
	var crc uint32
	var buf []byte
	for i := 0; i < n; i++ {
		id := at(i)
		buf = id.Window.AppendTo(binio.PutString(buf[:0], id.Key))
		crc = binio.ChecksumUpdate(crc, buf)
	}
	return crc
}

// putSessions appends the session section: see the encoding above.
func (o *WindowOperator) putSessions(b []byte) []byte {
	claims := o.sessionClaims()
	b = binio.PutUvarint(b, uint64(len(claims)))
	if len(claims) == 0 {
		return b
	}
	b = binio.PutUint32(b, identityCRC(len(claims), func(i int) core.Identity { return claims[i].id }))

	// Further initials. A multi-initial session's ordinals, in its
	// initials' order, are gathered in one pass over the claims.
	further := make(map[*session][]int)
	var prims []int // the primaries' ordinals, ascending
	for p, c := range claims {
		if c.i == 0 {
			prims = append(prims, p)
		}
		if len(c.s.initials) > 1 {
			ords := further[c.s]
			if ords == nil {
				ords = make([]int, len(c.s.initials))
				further[c.s] = ords
			}
			ords[c.i] = p
		}
	}
	b = binio.PutUvarint(b, uint64(len(further)))
	prev := -1
	for _, p := range prims {
		ords := further[claims[p].s]
		if ords == nil {
			continue
		}
		b = binio.PutUvarint(b, uint64(p-prev-1))
		b = binio.PutUvarint(b, uint64(len(ords)-1))
		for i := 1; i < len(ords); i++ {
			b = binio.PutVarint(b, int64(ords[i]-ords[i-1]))
		}
		prev = p
	}

	// Extended sessions.
	var extended int
	for _, p := range prims {
		if s := claims[p].s; s.cur != s.initials[0] {
			extended++
		}
	}
	b = binio.PutUvarint(b, uint64(extended))
	prev = -1
	for j, p := range prims {
		s := claims[p].s
		if w := s.initials[0]; s.cur != w {
			b = binio.PutUvarint(b, uint64(j-prev-1))
			b = binio.PutVarint(b, s.cur.Start-w.Start)
			b = binio.PutVarint(b, s.cur.End-w.End)
			prev = j
		}
	}

	// Session-list orders. prims runs key by key, each key's sessions in
	// primary order: the order a key without an entry decodes to.
	type order struct {
		key   int
		ranks []int
	}
	var orders []order
	for g, ki := 0, 0; g < len(prims); ki++ {
		key := claims[prims[g]].id.Key
		e := g + 1
		for e < len(prims) && claims[prims[e]].id.Key == key {
			e++
		}
		if list := o.sessions[key]; len(list) > 1 {
			ranks := make([]int, len(list))
			sorted := true
			for i, s := range list {
				ranks[i] = slices.IndexFunc(prims[g:e], func(p int) bool { return claims[p].s == s })
				sorted = sorted && ranks[i] == i
			}
			if !sorted {
				orders = append(orders, order{ki, ranks})
			}
		}
		g = e
	}
	b = binio.PutUvarint(b, uint64(len(orders)))
	prev = -1
	for _, ord := range orders {
		b = binio.PutUvarint(b, uint64(ord.key-prev-1))
		for _, r := range ord.ranks {
			b = binio.PutUvarint(b, uint64(r))
		}
		prev = ord.key
	}
	return b
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
// ids are the identities of the store restored with it, as listed by
// statebackend.IdentityLister — nil for an operator whose snapshots claim
// none (claimsIdentities) — and the session section must describe them
// exactly. Scheduling structures (aligned heap, session and custom-window
// timers) are re-derived from the decoded state.
func (o *WindowOperator) restoreState(b []byte, ids []core.Identity) error {
	d := snapDecoder{b: b}
	if err := d.magic(opSnapMagic); err != nil {
		return err
	}
	o.wm = d.varint()
	o.resultsEmitted = d.varint()
	o.lateDropped = d.varint()
	o.triggersFired = d.varint()

	o.aligned = make(map[window.Window]map[string]struct{})
	var prev window.Window
	for i, n := uint64(0), d.count(3); i < n && d.err == nil; i++ {
		w := d.nextWindow(prev, i)
		set := d.keySet()
		if d.err == nil {
			o.aligned[w] = set
		}
		prev = w
	}

	o.sessions = d.sessions(ids)

	o.custom = make(map[string]map[window.Window]int64)
	d.keys(func(key string) {
		set := make(map[window.Window]int64)
		var prev window.Window
		for i, n := uint64(0), d.count(3); i < n && d.err == nil; i++ {
			w := d.nextWindow(prev, i)
			set[w] = d.varint()
			prev = w
		}
		o.custom[key] = set
	})

	o.counts = make(map[string]int64)
	d.keys(func(key string) { o.counts[key] = d.varint() })
	if err := d.finish(); err != nil {
		if errors.Is(err, ErrSnapshotMismatch) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	o.rearm()
	return nil
}

// claimsIdentities reports whether the operator's snapshots name its
// sessions by its store's identities, so that a restore must list them:
// a session operator's do.
func (o *WindowOperator) claimsIdentities() bool { return o.kind == window.Session }

// adopt installs the registries, watermark and counters of from, a
// shell regrouped in memory (regroup), into o and re-derives o's
// scheduling structures from them.
func (o *WindowOperator) adopt(from opSnapshotter) {
	f := from.(*WindowOperator)
	o.wm, o.resultsEmitted, o.lateDropped, o.triggersFired = f.wm, f.resultsEmitted, f.lateDropped, f.triggersFired
	o.aligned, o.sessions, o.custom, o.counts = f.aligned, f.sessions, f.custom, f.counts
	o.rearm()
}

// rearm rebuilds the aligned-window heap and the timers from the
// registries: one timer per custom window at its end, and one session
// timer per key, exactly as live ingestion would arm them.
func (o *WindowOperator) rearm() {
	o.alignedHeap = append(o.alignedHeap[:0], sortedWindows(o.aligned)...)
	heap.Init(&o.alignedHeap)
	o.timers = o.timers[:0]
	for _, key := range sortedKeys(o.custom) {
		for _, w := range sortedWindows(o.custom[key]) {
			heap.Push(&o.timers, timerEntry{at: w.End, key: key, w: w})
		}
	}
	o.armedAt = make(map[string]int64)
	for key := range o.sessions {
		o.armSession(key)
	}
}

// sessions decodes the session section against ids (see the encoding
// above). Every disagreement with ids, and every entry the encoder would
// not write, wraps ErrSnapshotMismatch: the section's bytes mean
// something only against the identity list they were written for.
func (d *snapDecoder) sessions(ids []core.Identity) map[string][]*session {
	sessions := make(map[string][]*session)
	n := d.uvarint()
	if d.err != nil {
		return sessions
	}
	if n != uint64(len(ids)) {
		d.mismatch("the snapshot claims %d identities, the store holds %d", n, len(ids))
		return sessions
	}
	if n == 0 {
		return sessions
	}
	for i := 1; i < len(ids); i++ {
		if core.CompareIdentities(ids[i-1], ids[i]) >= 0 {
			d.mismatch("store identities %d and %d are not in ascending order", i-1, i)
			return sessions
		}
	}
	if crc := d.uint32(); d.err == nil && crc != identityCRC(len(ids), func(i int) core.Identity { return ids[i] }) {
		d.mismatch("the snapshot was taken against another identity list (CRC %08x)", crc)
	}

	// owner[i] is the primary ordinal of the session identity i is an
	// initial of, once claimed; -1 while unclaimed (a single-initial
	// session's primary).
	owner := make([]int, len(ids))
	for i := range owner {
		owner[i] = -1
	}
	further := make(map[int][]int)
	prev := -1
	for h := d.count(3); h > 0 && d.err == nil; h-- {
		p := d.ordinal(prev, len(ids), "identity")
		k := d.count(1)
		if d.err != nil {
			break
		}
		if owner[p] != -1 || k == 0 {
			d.mismatch("identity %d is claimed twice, or claims no further initial", p)
			break
		}
		owner[p] = p
		last := p
		for ; k > 0 && d.err == nil; k-- {
			f := int64(last) + d.varint()
			switch {
			case d.err != nil:
			case f < 0 || f >= int64(len(ids)):
				d.mismatch("initial ordinal %d is past the end of %d identities", f, len(ids))
			case owner[f] != -1:
				d.mismatch("identity %d is claimed twice", f)
			case ids[f].Key != ids[p].Key:
				d.mismatch("identity %d is an initial of a session of another key", f)
			default:
				owner[f] = p
				further[p] = append(further[p], int(f))
				last = int(f)
			}
		}
		prev = p
	}
	if d.err != nil {
		return sessions
	}

	// The sessions in primary order, and the keys in order with each
	// key's sessions in primary order.
	var all []*session
	var keys []string
	var lists [][]*session
	for i, id := range ids {
		if owner[i] != -1 && owner[i] != i {
			continue
		}
		s := &session{cur: id.Window, initials: make([]window.Window, 1, 1+len(further[i]))}
		s.initials[0] = id.Window
		for _, f := range further[i] {
			s.initials = append(s.initials, ids[f].Window)
		}
		all = append(all, s)
		if len(keys) == 0 || keys[len(keys)-1] != id.Key {
			keys = append(keys, id.Key)
			lists = append(lists, nil)
		}
		lists[len(lists)-1] = append(lists[len(lists)-1], s)
	}

	prev = -1
	for e := d.count(3); e > 0 && d.err == nil; e-- {
		j := d.ordinal(prev, len(all), "session")
		ds, de := d.varint(), d.varint()
		if d.err != nil {
			break
		}
		if ds == 0 && de == 0 {
			d.mismatch("session %d is listed as extended with its own window", j)
			break
		}
		s := all[j]
		s.cur = window.Window{Start: s.initials[0].Start + ds, End: s.initials[0].End + de}
		prev = j
	}

	prev = -1
	for p := d.count(3); p > 0 && d.err == nil; p-- {
		ki := d.ordinal(prev, len(keys), "key")
		if d.err != nil {
			break
		}
		list := lists[ki]
		if len(list) < 2 {
			d.mismatch("key %d has %d session, no order to record", ki, len(list))
			break
		}
		ordered := make([]*session, len(list))
		taken := make([]bool, len(list))
		sorted := true
		for i := range ordered {
			r := d.uvarint()
			if d.err == nil && (r >= uint64(len(list)) || taken[r]) {
				d.mismatch("rank %d of a key's %d sessions is out of range or repeated", r, len(list))
			}
			if d.err != nil {
				break
			}
			ordered[i], taken[r] = list[r], true
			sorted = sorted && r == uint64(i)
		}
		if d.err == nil && sorted {
			d.mismatch("key %d's session order restates the default", ki)
		}
		lists[ki] = ordered
		prev = ki
	}
	for ki, k := range keys {
		sessions[k] = lists[ki]
	}
	return sessions
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
		return fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
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

// mismatch latches an ErrSnapshotMismatch unless an error is already
// latched.
func (d *snapDecoder) mismatch(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotMismatch}, args...)...)
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

func (d *snapDecoder) uint32() uint32 {
	if d.err != nil {
		return 0
	}
	v, err := binio.Uint32(d.b)
	if err != nil {
		d.err = err
		return 0
	}
	d.b = d.b[4:]
	return v
}

// ordinal decodes the gap field of a list entry: the entry's ordinal is
// prev+1+gap, which must be below n, the count of what it names.
func (d *snapDecoder) ordinal(prev, n int, what string) int {
	gap := d.uvarint()
	if d.err == nil && gap >= uint64(n-prev-1) {
		d.mismatch("%s ordinal %d+%d is past the end of %d", what, prev+1, gap, n)
	}
	if d.err != nil {
		return 0
	}
	return prev + 1 + int(gap)
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
