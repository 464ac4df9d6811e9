package aur

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// statDeltaLogical is the Stat table's replay stream inside a
// checkpoint: concatenated segments of kind-prefixed records (set or
// tombstone) that replay, in order, into the table at the cut. A base
// checkpoint's stream is a full dump; an incremental checkpoint links
// the parent's segments and appends one segment holding only the rows
// the statMarks marks named — without the stream, the per-key table
// would be rewritten whole at every barrier and incremental commit cost
// would grow with live state instead of with the delta.
const statDeltaLogical = "stat.dlt"

const (
	statKindSet  byte = 0
	statKindTomb byte = 1
)

// segmentsSnapshotName persists, in a checkpoint, what the segment files
// themselves do not say: which segments the log consists of, which are
// open, and each one's consumed marks. CheckpointDelta does not clean
// before copying, so the snapshot's segments still contain consumed
// (fetch-&-removed) batches; Restore loads the marks before scanning the
// segments so those cannot resurrect, and rebuilds the live counts and
// onDisk from the scan. It is binio frames: one with the number of
// segments, then one per segment, ascending: id, state, and per consumed
// identity its identBytes and the offset below which its batches' blocks
// there are dead.
const segmentsSnapshotName = "segments.snap"

// SegmentInfo is one segment as segments.snap records it.
type SegmentInfo struct {
	ID    uint32
	State byte             // logfile.SegmentSealed, SegmentHead or SegmentSurvivor
	Marks map[string]int64 // identBytes → offset below which batches are dead
}

// Dead reports whether the batch e, in the block at offset off of the
// segment, was consumed.
func (si *SegmentInfo) Dead(off int64, e *logfile.BlockEntry) bool {
	mark, ok := si.Marks[string(appendIdent(nil, e.Key, e.Window))]
	return ok && off < mark
}

// encodeSegmentsSnapshot writes infos, in id order.
func encodeSegmentsSnapshot(infos []SegmentInfo) []byte {
	payload := binio.PutUvarint(nil, uint64(len(infos)))
	buf := binio.AppendRecord(nil, payload)
	for _, si := range infos {
		payload = append(binio.PutUvarint(payload[:0], uint64(si.ID)), si.State)
		for prefix, mark := range si.Marks {
			payload = binio.PutBytes(payload, []byte(prefix))
			payload = binio.PutUvarint(payload, uint64(mark))
		}
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// DecodeSegmentsSnapshot parses a segments.snap file. It never panics,
// whatever the input; a frame that fails verification — a zeroed page, or
// a snapshot of the earlier data/index pair layout, whose frames had no
// marker byte — is a *binio.FrameError.
func DecodeSegmentsSnapshot(b []byte) ([]SegmentInfo, error) {
	bad := func(what string) ([]SegmentInfo, error) {
		return nil, fmt.Errorf("aur: segments snapshot: %s: %w", what, binio.ErrCorrupt)
	}
	var out []SegmentInfo
	for first, segs := true, uint64(0); len(b) > 0 || uint64(len(out)) != segs; first = false {
		p, n, err := binio.ReadRecord(b)
		if err != nil {
			return nil, fmt.Errorf("aur: segments snapshot: %w", err)
		}
		b = b[n:]
		v, n, err := binio.Uvarint(p) // the header's count, or a segment's id
		if err != nil || v > math.MaxUint32 {
			return bad("segment count or id")
		}
		if first {
			if segs = v; n != len(p) || segs > uint64(len(b)) {
				return bad("segment count")
			}
			continue
		}
		if len(p) == n || p[n] > logfile.SegmentSurvivor || len(out) > 0 && uint32(v) <= out[len(out)-1].ID {
			return bad("segment header")
		}
		if p[n] != logfile.SegmentSealed && slices.ContainsFunc(out, func(si SegmentInfo) bool { return si.State == p[n] }) {
			return bad("two open segments of a kind")
		}
		si := SegmentInfo{ID: uint32(v), State: p[n], Marks: make(map[string]int64)}
		for p = p[n+1:]; len(p) > 0; {
			prefix, n, err := binio.Bytes(p)
			if err != nil {
				return bad("consumed identity")
			}
			mark, m, err := binio.Uvarint(p[n:])
			if err != nil || mark > math.MaxInt64 {
				return bad("consumed mark")
			}
			p = p[n+m:]
			si.Marks[string(prefix)] = int64(mark)
		}
		out = append(out, si)
	}
	return out, nil
}

// CheckpointDelta writes a snapshot of the instance into dir. It flushes
// the write buffer but does not clean: every segment's log, up to its
// committed length, is recorded under its own name and epoch as a segment
// list extending
// the parent checkpoint's (ckpt.Cut.Log, the way the AAR store records
// its window files), so a sealed segment the parent already holds is
// hard-linked whole, only what the open segments gained since the
// parent's cut is copied, and a nil parent copies every log whole.
// Because the segments still contain consumed batches, the segment table
// and the consumed marks are persisted in segments.snap; Restore loads it
// before scanning the segments so consumed state cannot resurrect. Nothing
// is fsynced here — the returned Result's NeedSync lists every written
// file for the composite store's group-commit sync window.
//
// CheckpointDelta holds only ioMu, so concurrent Appends and
// buffer-served reads proceed while the snapshot is written; the cut is
// the instant the buffer is detached inside the flush, and the Stat
// table is cut right after it: ids appended in between may add Stat
// rows, but those tuples are not in the snapshot either.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushLocked(true); err != nil {
		return nil, err
	}
	// The Stat cut: with a parent whose cut id matches the last committed
	// cut, only identities marked dirty since then are shipped; otherwise —
	// or when those marks would outnumber the table's rows, tombstones of
	// short-lived sessions included — the table is dumped whole as a new
	// stream base.
	type statRec struct {
		ident id
		maxTS int64
		tomb  bool
	}
	s.mu.Lock()
	statIncr := parent.Extends(statDeltaLogical, s.statMarks.LastCut()) &&
		!s.statMarks.BaseIsCheaper(len(s.stat))
	var statWork []statRec
	var captured ckpt.Captured[id]
	if statIncr {
		captured = s.statMarks.Cut(func(ident id, tomb bool) {
			if st, ok := s.stat[ident]; ok && !tomb {
				statWork = append(statWork, statRec{ident: ident, maxTS: st.maxTS})
			} else {
				statWork = append(statWork, statRec{ident: ident, tomb: true})
			}
		})
	} else {
		captured = s.statMarks.Cut(nil)
		for ident, st := range s.stat {
			statWork = append(statWork, statRec{ident: ident, maxTS: st.maxTS})
		}
	}
	s.mu.Unlock()
	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("aur: checkpoint: %w", err)
	}
	if err := s.segs.Flush(); err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, sg := range s.segs.List() {
		if err := cut.Log(segmentName(sg.ID), sg.X.epoch, sg.Log.Path(), sg.X.committed); err != nil {
			return nil, err
		}
		infos = append(infos, SegmentInfo{ID: sg.ID, State: s.segs.State(sg), Marks: sg.X.consumed})
	}
	if err := cut.Extra(segmentsSnapshotName, encodeSegmentsSnapshot(infos)); err != nil {
		return nil, err
	}
	err = cut.Stream(statDeltaLogical, statIncr, func(emit func([]byte)) error {
		var payload []byte
		for _, rec := range statWork {
			kind := statKindSet
			if rec.tomb {
				kind = statKindTomb
			}
			payload = append(payload[:0], kind)
			payload = binio.PutBytes(payload, []byte(rec.ident.key))
			payload = rec.ident.w.AppendTo(payload)
			if !rec.tomb {
				payload = binio.PutVarint(payload, rec.maxTS)
			}
			emit(payload)
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
		s.statMarks.Commit(captured, cutID)
		s.mu.Unlock()
	}
	return res, nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory: every segment segments.snap names is materialized from its
// checkpoint segments under its own id and epoch — so the delta chain
// continues across the restart — and reopened as it was, sealed, head or
// survivor. Live counts, onDisk and the flush sequence come back from one
// scan of each segment under the restored consumed marks; the Stat table
// and ETTs come back from the Stat stream. A checkpoint of the earlier
// data/index pair layout fails on its marker-less segments.snap with a
// *binio.FrameError.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	dirty := len(s.buf) != 0 || len(s.onDisk) != 0 || s.segs.Len() != 0
	s.mu.Unlock()
	if dirty {
		return fmt.Errorf("aur: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	meta, err := ckpt.ReadMeta(fsys, dir)
	if err != nil {
		return fmt.Errorf("aur: restore: %w", err)
	}
	snap, err := fsys.ReadFile(filepath.Join(dir, segmentsSnapshotName))
	if err != nil {
		return err
	}
	infos, err := DecodeSegmentsSnapshot(snap)
	if err != nil {
		return err
	}
	newOnDisk := make(map[id][]segShare)
	for _, si := range infos {
		name := segmentName(si.ID)
		fstate := meta.File(name)
		if fstate == nil {
			return fmt.Errorf("aur: restore: SEGMENTS lacks %s", name)
		}
		if err := ckpt.Materialize(fsys, dir, fstate, filepath.Join(s.dir.Root(), name)); err != nil {
			return fmt.Errorf("aur: restore: %w", err)
		}
		sg, err := s.segs.Reopen(si.ID, si.State, segState{epoch: fstate.Epoch, consumed: si.Marks})
		if err != nil {
			return err
		}
		sg.X.committed = sg.Log.Size()
		for _, mark := range si.Marks {
			if mark > sg.X.committed {
				return fmt.Errorf("aur: segments snapshot: consumed mark past %s: %w", name, binio.ErrCorrupt)
			}
		}
		err = s.scanSegLocked(sg, func(off int64, ident []byte, e *logfile.BlockEntry) error {
			s.seq = max(s.seq, e.Seq)
			if !sg.X.dead(ident, off) {
				ident := id{key: string(e.Key), w: e.Window}
				newOnDisk[ident] = addShare(newOnDisk[ident], sg.ID, int64(e.Size))
				sg.Live += int64(e.Size)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	newStat, err := s.loadStatStream(dir, meta)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.onDisk = newOnDisk
	for ident, st := range newStat {
		st.spilled = len(newOnDisk[ident]) > 0
		s.stat[ident] = st
	}
	// The restored table IS the state of this cut: record its id so the
	// next checkpoint can extend the stream.
	s.statMarks.Restored(meta.CutID)
	s.mu.Unlock()
	return s.segs.Reap()
}

// loadStatStream replays a checkpoint's Stat stream (the
// stat.dlt segment chain) into a fresh table: set records install a
// row, tombstones remove one, later records win.
func (s *Store) loadStatStream(dir string, meta *ckpt.Meta) (map[id]*statEntry, error) {
	fstate := meta.File(statDeltaLogical)
	if fstate == nil {
		return nil, fmt.Errorf("aur: restore: SEGMENTS lacks %s", statDeltaLogical)
	}
	out := make(map[id]*statEntry)
	err := ckpt.Replay(s.dir.FS(), dir, fstate, func(rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("empty record")
		}
		kind := rec[0]
		k, kn, err := binio.Bytes(rec[1:])
		if err != nil {
			return err
		}
		w, wn, err := window.Decode(rec[1+kn:])
		if err != nil {
			return err
		}
		ident := id{key: string(k), w: w}
		switch kind {
		case statKindTomb:
			delete(out, ident)
		case statKindSet:
			maxTS, _, err := binio.Varint(rec[1+kn+wn:])
			if err != nil {
				return err
			}
			st := &statEntry{maxTS: maxTS}
			if s.opts.Predictor != nil {
				if ett, ok := s.opts.Predictor.ETT(w, maxTS); ok {
					st.ett, st.hasETT = ett, true
				}
			}
			out[ident] = st
		default:
			return fmt.Errorf("unknown record kind %d", kind)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("aur: stat stream: %w", err)
	}
	return out, nil
}
