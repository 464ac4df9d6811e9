package rmw

import (
	"cmp"
	"fmt"
	"slices"

	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
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
		spilled  []spilledAgg // upserts to read back from the segments
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
				spilled = append(spilled, spilledAgg{ident, sp})
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
		for ident, sp := range s.index {
			spilled = append(spilled, spilledAgg{ident, sp})
		}
	}
	s.mu.Unlock()

	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	// The stream's records are a set — at most one per identity in a cut —
	// so their order within the segment is free: what is in memory goes
	// first, what was spilled follows in log order. A spilled record is
	// the same bytes as one from memory: the segments' block entries are
	// not the stream's format.
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
		return s.readSpilledLocked(spilled, func(ident id, agg []byte) error {
			emit(encodeEntry(append(payload[:0], deltaKindUpsert), ident, agg))
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
	// next block it needs: a page, which the read would have touched anyway.
	dumpGapBytes = 4 << 10
	// dumpRunBytes bounds one coalesced read.
	dumpRunBytes = 256 << 10
)

// spilledAgg is a flushed aggregate to read back, and its identity.
type spilledAgg struct {
	ident id
	sp    span
}

// readSpilledLocked hands fn the aggregate of every entry in spilled,
// reading the blocks that hold them in (segment, offset) order, each block
// once, and covering near-adjacent blocks with one read: an eviction's
// blocks lie back to back in its segment, so a checkpoint reads spilled
// state in a few hundred reads, not one per aggregate. It checks each
// block's checksum once and decodes only the entries it wants. Caller
// holds ioMu, which keeps the spans where they are. The aggregate passed
// to fn aliases a block read for this call.
func (s *Store) readSpilledLocked(spilled []spilledAgg, fn func(ident id, agg []byte) error) error {
	slices.SortFunc(spilled, func(a, b spilledAgg) int {
		return cmp.Or(cmp.Compare(a.sp.seg, b.sp.seg), cmp.Compare(a.sp.off, b.sp.off), cmp.Compare(a.sp.entry, b.sp.entry))
	})
	var e logfile.BlockEntry
	for i := 0; i < len(spilled); {
		first := spilled[i].sp
		end := first.off + int64(first.n)
		j := i + 1
		for ; j < len(spilled) && spilled[j].sp.seg == first.seg; j++ {
			sp := spilled[j].sp
			next := sp.off + int64(sp.n)
			// An entry of a block the run covers joins it whatever its size.
			if sp.off >= end && (sp.off-end > dumpGapBytes || next-first.off > dumpRunBytes) {
				break
			}
			end = max(end, next)
		}
		lg := s.segs.Get(first.seg).Log
		raw, err := lg.ReadRangeAt(first.off, int(end-first.off))
		if err != nil {
			return fmt.Errorf("rmw: read spilled: %w", err)
		}
		var block []byte
		blockOff := int64(-1)
		for _, sa := range spilled[i:j] {
			if sa.sp.off != blockOff {
				blockOff = sa.sp.off
				if block, err = lg.DecodeRecord(raw[blockOff-first.off:][:sa.sp.n], blockOff); err != nil {
					return fmt.Errorf("rmw: read spilled: %w", err)
				}
			}
			agg, err := aggAt(lg, block, sa.sp, sa.ident.key, &e)
			if err != nil {
				return err
			}
			if err := fn(sa.ident, agg); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory by replaying its delta stream: upserts are written through a
// block writer into fresh log segments in arrival order, rolling to the
// next segment as each fills (a later upsert of the same identity
// supersedes, leaving dead bytes) and tombstones drop the identity,
// re-deriving the hash index and the segments' live counts along the way.
// Only the open block's entries wait in memory for their location.
// Segments the replay leaves with nothing live are dropped; the last one
// stays open as the flush head. The cut id carries over so the delta chain
// continues across the restart.
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
	// The open block's entries, and where each identity's is among them;
	// one superseded or dropped before the block is written is left out of
	// pendingAt, and born dead.
	var pending []placed
	pendingAt := make(map[id]int)
	s.seq++
	bw := logfile.BlockWriter{Bound: segmentBlockBytes, Emit: func(block []byte, entries, body int) error {
		head, err := s.segs.OpenHead()
		if err != nil {
			return err
		}
		off, n, err := head.Log.Append(block)
		if err != nil {
			return err
		}
		placeBlock(pending, off, head.ID, n, block, body)
		for i, p := range pending {
			if at, ok := pendingAt[p.ident]; ok && at == i {
				newIndex[p.ident] = p.sp
				live[head.ID] += int64(p.sp.share)
			}
		}
		pending = pending[:0]
		clear(pendingAt)
		s.segs.Seal(head, false)
		return nil
	}}
	vals := make([][]byte, 1)
	err = ckpt.Replay(fsys, dir, fstate, func(rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("empty delta record")
		}
		kind, entry := rec[0], rec[1:]
		key, w, agg, err := decodeEntry(entry)
		if err != nil {
			return err
		}
		ident := id{key: string(key), w: w}
		// Superseded, or dropped by a tombstone.
		if _, ok := pendingAt[ident]; ok {
			delete(pendingAt, ident)
		} else if sp, ok := newIndex[ident]; ok {
			live[sp.seg] -= int64(sp.share)
			delete(newIndex, ident)
		}
		switch kind {
		case deltaKindTombstone:
		case deltaKindUpsert:
			vals[0] = agg
			off, n, err := bw.Add(s.seq, ident.key, w, vals)
			if err != nil {
				return err
			}
			pendingAt[ident] = len(pending)
			pending = append(pending, placed{ident, span{entry: uint32(off), share: uint32(n)}})
		default:
			return fmt.Errorf("unknown delta record kind %d", kind)
		}
		return nil
	})
	if err == nil {
		err = bw.Flush()
	}
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
