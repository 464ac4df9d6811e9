package ckpt

// Marks is the dirty-mark tracker behind a replay stream (AUR's
// stat.dlt): it records which identities changed since the last
// committed cut, so an incremental checkpoint ships only those — an
// upsert for an identity that is live at the cut, a tombstone for one
// that was consumed — and it remembers the id of that last committed cut,
// which a parent checkpoint must carry for its stream to be extended.
//
// A mark is fresh while its identity is known to be absent from every
// checkpoint the next delta could extend: it had no live state when the
// mark was created (so the last committed cut does not hold it) and no
// cut has captured the mark since. Consuming a fresh identity deletes the
// mark instead of turning it into a tombstone — state born and consumed
// between two cuts costs the stream no bytes. Every cut, incremental or
// base, committed or not, clears the fresh bit of the marks it captures:
// from then on a checkpoint that may yet commit holds the identity, and
// its removal must ship. A cut that never commits therefore errs only
// towards a tombstone for state its parent never held, which replays as a
// no-op.
//
// Marks also knows when extending the parent is not worth it: it counts
// its marks and its tombstones as they change, and BaseIsCheaper compares
// the records a delta would ship against the records of a fresh base.
//
// Marks does no locking; the owning store calls it under the mutex that
// guards the state the marks describe.
type Marks[K comparable] struct {
	m       map[K]mark
	tombs   int // marks in m that are tombstones
	seq     uint64
	lastCut uint64
}

type mark struct {
	// seq orders mutations, so a commit retires only the marks its cut
	// captured and not ones re-dirtied while the cut was being written.
	seq   uint64
	tomb  bool
	fresh bool
}

// Captured is what one cut absorbed: each marked identity's sequence
// number at the cut. Commit takes it back once the checkpoint is durable.
type Captured[K comparable] map[K]uint64

// NewMarks returns an empty tracker with no committed cut.
func NewMarks[K comparable]() *Marks[K] {
	return &Marks[K]{m: make(map[K]mark)}
}

// set stores k's mark and drop deletes it; every change to m goes through
// one of them, which is what keeps the tombstone count exact.
func (t *Marks[K]) set(k K, m mark) {
	if t.m[k].tomb {
		t.tombs--
	}
	if m.tomb {
		t.tombs++
	}
	t.m[k] = m
}

func (t *Marks[K]) drop(k K) {
	if t.m[k].tomb {
		t.tombs--
	}
	delete(t.m, k)
}

// Upsert records that k was written. wasLive says whether k had live
// state just before the write; it decides freshness only when k carries
// no mark yet (an existing mark already knows).
func (t *Marks[K]) Upsert(k K, wasLive bool) {
	old, marked := t.m[k]
	t.seq++
	t.set(k, mark{seq: t.seq, fresh: (marked && old.fresh) || (!marked && !wasLive)})
}

// Remove records that k's live state was consumed: a fresh mark is
// deleted, anything else becomes (or stays) a tombstone.
func (t *Marks[K]) Remove(k K) {
	if old, marked := t.m[k]; marked && old.fresh {
		t.drop(k)
		return
	}
	t.seq++
	t.set(k, mark{seq: t.seq, tomb: true})
}

// Len returns the number of marked identities: the records an incremental
// cut taken now would ship.
func (t *Marks[K]) Len() int { return len(t.m) }

// Tombstones returns how many of the marks are tombstones.
func (t *Marks[K]) Tombstones() int { return t.tombs }

// BaseIsCheaper reports whether a cut taken now is better written as the
// base of a new stream than as a delta on its parent, live being the
// number of identities with live state. A delta ships one record per
// mark; a base ships one per live identity — the upsert marks plus the
// clean identities no mark names. The base is the smaller of the two
// exactly when the tombstones outnumber the clean identities, and it has
// two further advantages the count does not show: it links none of the
// parent's dead records forward, and it restores from one segment.
func (t *Marks[K]) BaseIsCheaper(live int) bool {
	clean := live - (len(t.m) - t.tombs)
	return t.tombs > clean
}

// Cut captures every mark for a checkpoint being written and clears its
// fresh bit. visit, when non-nil, is told each captured identity and
// whether its mark is a tombstone — the records of an incremental cut; a
// base cut dumps live state instead and passes nil.
func (t *Marks[K]) Cut(visit func(k K, tomb bool)) Captured[K] {
	c := make(Captured[K], len(t.m))
	for k, m := range t.m {
		c[k] = m.seq
		if m.fresh {
			m.fresh = false
			t.m[k] = m // a fresh mark is never a tombstone: the count stands
		}
		if visit != nil {
			visit(k, m.tomb)
		}
	}
	return c
}

// Commit retires the marks a now-durable cut captured, keeping any that
// were re-dirtied since, and records cutID as the last committed cut.
func (t *Marks[K]) Commit(c Captured[K], cutID uint64) {
	for k, seq := range c {
		if cur, ok := t.m[k]; ok && cur.seq == seq {
			t.drop(k)
		}
	}
	t.lastCut = cutID
}

// Restored records that the owning store now holds exactly the state of
// the checkpoint cut cutID, so the next cut may extend that checkpoint.
func (t *Marks[K]) Restored(cutID uint64) { t.lastCut = cutID }

// LastCut returns the id of the last committed (or restored) cut, 0 when
// there is none.
func (t *Marks[K]) LastCut() uint64 { return t.lastCut }
