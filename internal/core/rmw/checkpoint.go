package rmw

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
)

// Checkpoints persist the RMW store as a replay stream: one
// logical file (deltaLogical) whose segments, concatenated in order,
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
// committed cut, only identities in the deltas map — mutated since then
// — are written (as upserts or tombstones) and the parent's segments are
// hard-linked across; otherwise the live state is dumped whole as the
// base of a new chain. The hash index is not persisted: restore rebuilds
// it by replaying the stream.
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
	type pending struct {
		ident id
		tomb  bool
		v     []byte // buffered value (aliased; Put never mutates in place)
		sp    span   // on-disk span, valid when v is nil and !tomb
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	incremental := parent.Extends(deltaLogical, s.marks.LastCut())
	var work []pending
	var captured ckpt.Captured[id]
	if incremental {
		captured = s.marks.Cut(func(ident id, tomb bool) {
			p := pending{ident: ident}
			if v, ok := s.buf[ident]; ok && !tomb {
				p.v = v
			} else if sp, ok := s.index[ident]; ok && !tomb {
				p.sp = sp
			} else {
				// An upsert mark without live state cannot happen (a
				// consume leaves a tombstone mark or none); keep the
				// snapshot sound anyway.
				p.tomb = true
			}
			work = append(work, p)
		})
	} else {
		captured = s.marks.Cut(nil)
		for ident, v := range s.buf {
			work = append(work, pending{ident: ident, v: v})
		}
		for ident, sp := range s.index {
			if _, buffered := s.buf[ident]; buffered {
				continue // the buffered copy is newer
			}
			work = append(work, pending{ident: ident, sp: sp})
		}
	}
	s.mu.Unlock()

	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	err = cut.Stream(deltaLogical, incremental, func(emit func([]byte) error) error {
		var payload []byte
		for _, p := range work {
			switch {
			case p.tomb:
				payload = append(payload[:0], deltaKindTombstone)
				payload = encodeEntry(payload, p.ident, nil)
			case p.v != nil:
				payload = append(payload[:0], deltaKindUpsert)
				payload = encodeEntry(payload, p.ident, p.v)
			default:
				// Spans stay readable under ioMu: cleaning, which would
				// move them, also needs ioMu.
				entry, err := s.segs[p.sp.seg].log.ReadRecordAt(p.sp.off, int(p.sp.n))
				if err != nil {
					return fmt.Errorf("rmw: checkpoint %q: %w", p.ident.key, err)
				}
				payload = append(payload[:0], deltaKindUpsert)
				payload = append(payload, entry...)
			}
			if err := emit(payload); err != nil {
				return err
			}
		}
		return nil
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
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	dirty := len(s.buf) != 0 || len(s.index) != 0 || len(s.segs) != 0
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
	retire := func(ident id) {
		if sp, ok := newIndex[ident]; ok {
			live[sp.seg] -= int64(sp.n)
			delete(newIndex, ident)
		}
	}
	for _, seg := range fstate.Segments {
		f, err := fsys.Open(filepath.Join(dir, seg.Name))
		if err != nil {
			return err
		}
		sc := binio.NewRecordScanner(f, 0)
		for sc.Scan() {
			rec := sc.Record()
			if len(rec) == 0 {
				f.Close()
				return fmt.Errorf("rmw: restore: empty delta record in %s", seg.Name)
			}
			kind, entry := rec[0], rec[1:]
			key, w, _, err := decodeEntry(entry)
			if err != nil {
				f.Close()
				return fmt.Errorf("rmw: restore: %w", err)
			}
			ident := id{key: string(key), w: w}
			switch kind {
			case deltaKindTombstone:
				retire(ident)
			case deltaKindUpsert:
				if s.head == nil {
					if s.head, err = s.openSegLocked(); err != nil {
						f.Close()
						return err
					}
				}
				off, n, err := s.head.log.Append(entry)
				if err != nil {
					f.Close()
					return err
				}
				retire(ident)
				newIndex[ident] = span{off: off, seg: s.head.id, n: uint32(n)}
				live[s.head.id] += int64(n)
				s.sealLocked(s.head, false)
			default:
				f.Close()
				return fmt.Errorf("rmw: restore: unknown delta record kind %d in %s", kind, seg.Name)
			}
		}
		err = sc.Err()
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("rmw: restore %s: %w", seg.Name, err)
		}
	}
	for _, l := range s.logsLocked() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.index = newIndex
	for sid, n := range live {
		s.segs[sid].live = n
	}
	s.marks.Restored(meta.CutID)
	s.mu.Unlock()
	return s.reapLocked()
}
