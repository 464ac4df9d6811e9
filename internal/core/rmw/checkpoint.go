package rmw

import (
	"fmt"
	"sort"

	"flowkv/internal/ckpt"
)

// Checkpoints persist the RMW store as a replay stream (ckpt.Cut.Stream):
// one logical file (deltaLogical) whose segments, concatenated in order,
// form a sequence of kind-prefixed records — a full dump of live
// aggregates as upserts at the chain's base, then per checkpoint one
// segment holding exactly the identities mutated since the parent's cut
// (upserts carry the aggregate, tombstones record a fetch-&-remove).
// Restore replays the stream into a fresh live log.
const deltaLogical = "rmw.dlt"

const (
	deltaKindUpsert    byte = 0
	deltaKindTombstone byte = 1
)

// CheckpointDelta writes a snapshot of the instance into dir. The cut
// is one mu critical section that snapshots the live state directly:
// buffered aggregates (aliased, not copied — Put installs fresh slices,
// never mutates in place) and index spans not superseded by a buffered
// copy. When the parent checkpoint's cut matches this instance's last
// committed cut, only the marked identities — mutated since then — are
// written (as upserts or tombstones) and the parent's segments are
// hard-linked across; otherwise the live state is dumped whole as the
// base of a new chain. The hash index is not persisted: restore rebuilds
// it by replaying the stream.
//
// A cut that could extend its parent is still written as a base when the
// delta would be the larger of the two (ckpt.Marks.BaseIsCheaper): state
// that lives for less than a barrier interval is all dirty at every cut,
// and its delta is a full dump plus a tombstone for every identity of the
// previous one. The base has no more records, carries no dead records
// forward, and restores from a single segment.
//
// Writing the checkpoint from the snapshot, rather than compacting the
// live log and copying it, is what makes the cut exact under concurrent
// writers: a Put that lands after the cut retires its identity's index
// entry immediately (under mu alone), so any scheme that re-reads the
// live index after the cut can miss an aggregate that was acknowledged
// before it. The snapshot taken inside the cut is immune — spans stay
// readable because cleaning and segment drops need ioMu, which
// CheckpointDelta holds.
// Only ioMu is held, so concurrent Puts and buffer-served Gets proceed
// while the snapshot is written; aggregates put after the cut are not in
// it.
//
// The returned Result's Commit hook must be invoked only after the
// enclosing checkpoint's atomic rename: it retires the delta marks this
// cut absorbed (identities re-dirtied mid-write keep their newer marks)
// and records the cut id the next delta will extend. An uncommitted cut
// leaves the marks in place, so a failed checkpoint merely re-ships
// those identities next time.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	// The cut. flushing is always nil here: flushes run under ioMu.
	type buffered struct {
		ident id
		v     []byte // nil for a tombstone; aliased, Put never mutates in place
	}
	var (
		inMem    []buffered
		spilled  []span // upserts to read back from the segments
		captured ckpt.Captured[id]
	)
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	incremental := parent.Extends(deltaLogical, s.marks.LastCut())
	if incremental && s.marks.BaseIsCheaper(len(s.buf)+len(s.index)) {
		incremental = false
		s.rebases.Inc()
	}
	if incremental {
		captured = s.marks.Cut(func(ident id, tomb bool) {
			if v, ok := s.buf[ident]; ok && !tomb {
				inMem = append(inMem, buffered{ident, v})
			} else if sp, ok := s.index[ident]; ok && !tomb {
				spilled = append(spilled, sp)
			} else {
				// An upsert mark without live state cannot happen (a
				// consume leaves a tombstone mark or none); keep the
				// snapshot sound anyway.
				inMem = append(inMem, buffered{ident: ident})
			}
		})
	} else {
		// A buffered identity is never also indexed (Put retires the
		// index entry), so the two maps are the live state, disjoint.
		captured = s.marks.Cut(nil)
		for ident, v := range s.buf {
			inMem = append(inMem, buffered{ident, v})
		}
		for _, sp := range s.index {
			spilled = append(spilled, sp)
		}
	}
	s.mu.Unlock()

	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	// The stream's records are a set — at most one per identity in a cut —
	// so their order within the segment is free: what is in memory goes
	// first, what was spilled follows in log order.
	err = cut.Stream(deltaLogical, incremental, func(emit func([]byte)) error {
		var payload []byte
		for _, b := range inMem {
			kind := deltaKindUpsert
			if b.v == nil {
				kind = deltaKindTombstone
			}
			payload = encodeEntry(append(payload[:0], kind), b.ident, b.v)
			emit(payload)
		}
		return s.readSpansLocked(spilled, func(entry []byte) error {
			payload = append(append(payload[:0], deltaKindUpsert), entry...)
			emit(payload)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	res, err := cut.Finish()
	if err != nil {
		return nil, err
	}
	cutID := cut.ID()
	res.Commit = func() {
		s.mu.Lock()
		s.marks.Commit(captured, cutID)
		s.mu.Unlock()
	}
	return res, nil
}

const (
	// dumpGapBytes is the most dead bytes one read bridges to reach the
	// next live record: a page, which the read would have touched anyway.
	dumpGapBytes = 4 << 10
	// dumpRunBytes bounds one coalesced read.
	dumpRunBytes = 256 << 10
)

// readSpansLocked hands fn the entry of every record in spans, reading
// them in (segment, offset) order and covering near-adjacent records with
// one read each: an eviction's records lie back to back in its segment, so
// a checkpoint reads spilled state in a few hundred reads, not one per
// aggregate. Caller holds ioMu, which keeps the spans where they are. The
// entry passed to fn is valid only during the call.
func (s *Store) readSpansLocked(spans []span, fn func(entry []byte) error) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].seg != spans[j].seg {
			return spans[i].seg < spans[j].seg
		}
		return spans[i].off < spans[j].off
	})
	for i := 0; i < len(spans); {
		first := spans[i]
		end := first.off + int64(first.n)
		j := i + 1
		for ; j < len(spans) && spans[j].seg == first.seg; j++ {
			next := spans[j].off + int64(spans[j].n)
			if spans[j].off-end > dumpGapBytes || next-first.off > dumpRunBytes {
				break
			}
			end = next
		}
		lg := s.segs.Get(first.seg).Logs[0]
		raw, err := lg.ReadRangeAt(first.off, int(end-first.off))
		if err != nil {
			return fmt.Errorf("rmw: checkpoint: %w", err)
		}
		for _, sp := range spans[i:j] {
			entry, err := lg.DecodeRecord(raw[sp.off-first.off:][:sp.n], sp.off)
			if err != nil {
				return fmt.Errorf("rmw: checkpoint: %w", err)
			}
			if err := fn(entry); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory by replaying its delta stream: upserts append to fresh log
// segments in arrival order, rolling to the next segment as each fills (a
// later upsert of the same identity supersedes, leaving dead bytes) and
// tombstones drop the identity, re-deriving the hash index and the
// segments' live counts along the way. Segments the replay leaves with
// nothing live are dropped; the last one stays open as the flush head.
// The cut id carries over so the delta chain continues across the
// restart.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	dirty := len(s.buf) != 0 || len(s.index) != 0 || s.segs.Len() != 0
	s.mu.Unlock()
	if dirty {
		return fmt.Errorf("rmw: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	meta, err := ckpt.ReadMeta(fsys, dir)
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	fstate := meta.File(deltaLogical)
	if fstate == nil {
		return fmt.Errorf("rmw: restore: SEGMENTS lacks %s", deltaLogical)
	}
	newIndex := make(map[id]span)
	live := make(map[uint32]int64) // per segment, installed under mu at the end
	err = ckpt.Replay(fsys, dir, fstate, func(rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("empty delta record")
		}
		kind, entry := rec[0], rec[1:]
		key, w, _, err := decodeEntry(entry)
		if err != nil {
			return err
		}
		ident := id{key: string(key), w: w}
		if sp, ok := newIndex[ident]; ok { // superseded, or dropped by a tombstone
			live[sp.seg] -= int64(sp.n)
			delete(newIndex, ident)
		}
		switch kind {
		case deltaKindTombstone:
		case deltaKindUpsert:
			head, err := s.segs.OpenHead()
			if err != nil {
				return err
			}
			off, n, err := head.Logs[0].Append(entry)
			if err != nil {
				return err
			}
			newIndex[ident] = span{off: off, seg: head.ID, n: uint32(n)}
			live[head.ID] += int64(n)
			s.segs.Seal(head, false)
		default:
			return fmt.Errorf("unknown delta record kind %d", kind)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	if err := s.segs.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	s.index = newIndex
	for sid, n := range live {
		s.segs.Get(sid).Live = n
	}
	s.marks.Restored(meta.CutID)
	s.mu.Unlock()
	return s.segs.Reap()
}
