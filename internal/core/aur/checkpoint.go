package aur

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// statLogical is the Stat table inside a checkpoint: a replay stream
// (ckpt.Cut.Stream) written whole at every cut, one record per identity
// whose batches are on disk at the cut — every live identity, since the
// cut is a drain. A record is the kind byte statKindSet, the key, the
// initial window and maxTS. It is not a delta on the parent's stream:
// sessions turn over within a barrier, so nearly every row differs from
// the parent cut's (DESIGN.md §14).
const statLogical = "stat.dlt"

const statKindSet byte = 0

// segmentsSnapshotName persists, in a checkpoint, what the segment files
// themselves do not say: which segments the log consists of, which are
// open, and each one's consumed marks. CheckpointDelta does not clean
// before copying, so the snapshot's segments still contain consumed
// (fetch-&-removed) batches; Restore loads the marks before scanning the
// segments so those cannot resurrect, and rebuilds the live counts and
// segment shares from the scan. It is binio frames: one with the number
// of segments, then one per segment, ascending: id, state, and per
// consumed identity, ascending by identBytes, its identBytes and the
// offset below which its batches' blocks there are dead. A state has
// exactly one encoding.
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

// encodeSegmentsSnapshot writes infos, in id order, each segment's marks
// sorted, so one state always writes the same bytes.
func encodeSegmentsSnapshot(infos []SegmentInfo) []byte {
	payload := binio.PutUvarint(nil, uint64(len(infos)))
	buf := binio.AppendRecord(nil, payload)
	var idents []string
	for _, si := range infos {
		payload = append(binio.PutUvarint(payload[:0], uint64(si.ID)), si.State)
		idents = idents[:0]
		for ident := range si.Marks {
			idents = append(idents, ident)
		}
		slices.Sort(idents)
		for _, ident := range idents {
			payload = binio.PutBytes(payload, []byte(ident))
			payload = binio.PutUvarint(payload, uint64(si.Marks[ident]))
		}
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// DecodeSegmentsSnapshot parses a segments.snap file. It never panics,
// whatever the input; a frame that fails verification — a zeroed page, or
// a snapshot of the earlier data/index pair layout, whose frames had no
// marker byte — is a *binio.FrameError, and anything encodeSegmentsSnapshot
// would not have written byte for byte, consumed identities out of order
// among them, matches binio.ErrCorrupt.
func DecodeSegmentsSnapshot(b []byte) ([]SegmentInfo, error) {
	bad := func(what string) ([]SegmentInfo, error) {
		return nil, fmt.Errorf("aur: segments snapshot: %s: %w", what, binio.ErrCorrupt)
	}
	orig := b
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
		var prev []byte
		for p = p[n+1:]; len(p) > 0; {
			ident, n, err := binio.Bytes(p)
			if err != nil {
				return bad("consumed identity")
			}
			if len(si.Marks) > 0 && bytes.Compare(ident, prev) <= 0 {
				return bad("consumed identities not ascending")
			}
			mark, m, err := binio.Uvarint(p[n:])
			if err != nil || mark > math.MaxInt64 {
				return bad("consumed mark")
			}
			p, prev = p[n+m:], ident
			si.Marks[string(ident)] = int64(mark)
		}
		out = append(out, si)
	}
	// Overlong varints and the like: not what the encoder writes.
	if !bytes.Equal(encodeSegmentsSnapshot(out), orig) {
		return bad("not canonical")
	}
	return out, nil
}

// CheckpointDelta writes a snapshot of the instance into dir. It drains
// the write buffer but does not clean: every segment's log, up to its
// committed length, is recorded under its own name and epoch as a segment
// list extending the parent checkpoint's (ckpt.Cut.Log, the way the AAR
// store records its window files), so a sealed segment the parent already
// holds is hard-linked whole, only what the open segments gained since
// the parent's cut is copied, and a nil parent copies every log whole.
// Because the segments still contain consumed batches, the segment table
// and the consumed marks are persisted in segments.snap; Restore loads it
// before scanning the segments so consumed state cannot resurrect. Nothing
// is fsynced here — the returned Result's NeedSync lists every written
// file for the composite store's group-commit sync window.
//
// CheckpointDelta holds only ioMu, so concurrent Appends and
// buffer-served reads proceed while the snapshot is written. The cut is
// the mu section in which the drain detaches the buffer, which also
// collects the Stat table: the stream holds exactly the identities whose
// values the segments hold at the cut, with the maxTS of the tuples that
// are in them.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var rows []statRow
	if err := s.flushLocked(true, &rows); err != nil {
		return nil, err
	}
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
	err = cut.Stream(statLogical, func(emit func([]byte)) error {
		var payload []byte
		for _, r := range rows {
			payload = binio.PutBytes(append(payload[:0], statKindSet), []byte(r.ident.key))
			payload = binio.PutVarint(r.ident.w.AppendTo(payload), r.maxTS)
			emit(payload)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cut.Finish()
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory. The Stat stream gives the table its entries and ETTs. Every
// segment segments.snap names is materialized from its checkpoint segments
// under its own id and epoch — so the delta chain continues across the
// restart — and reopened as it was, sealed, head or survivor; one scan of
// each under the restored consumed marks gives the entries their shares,
// the segments their live counts and the store its flush sequence. A row
// with no live batch, or a live batch with no row, fails the restore
// (binio.ErrCorrupt). A checkpoint of the earlier data/index pair layout
// fails on its marker-less segments.snap with a *binio.FrameError.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return ErrClosed
	}
	dirty := len(s.table) != 0 || s.segs.Len() != 0
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
	table, err := s.loadStatStream(dir, meta)
	if err != nil {
		return err
	}
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
		err = s.scanSegLocked(sg, func(off int64, ident []byte, be *logfile.BlockEntry) error {
			s.seq = max(s.seq, be.Seq)
			if sg.X.dead(ident, off) {
				return nil
			}
			e := table[id{key: string(be.Key), w: be.Window}]
			if e == nil {
				return fmt.Errorf("aur: restore: %s holds a live batch of %q %v, which has no Stat row: %w",
					name, be.Key, be.Window, binio.ErrCorrupt)
			}
			e.shares = addShare(e.shares, sg.ID, int64(be.Size))
			sg.Live += int64(be.Size)
			return nil
		})
		if err != nil {
			return err
		}
	}
	for ident, e := range table {
		if len(e.shares) == 0 {
			return fmt.Errorf("aur: restore: the Stat row of %q %v has no batch on disk: %w", ident.key, ident.w, binio.ErrCorrupt)
		}
	}
	s.mu.Lock()
	s.table = table
	s.mu.Unlock()
	return s.segs.Reap()
}

// loadStatStream replays a checkpoint's Stat stream into a fresh table,
// one entry per row; anything the writer would not have written — another
// record kind, a second row for an identity — matches binio.ErrCorrupt.
func (s *Store) loadStatStream(dir string, meta *ckpt.Meta) (map[id]*entry, error) {
	fstate := meta.File(statLogical)
	if fstate == nil {
		return nil, fmt.Errorf("aur: restore: SEGMENTS lacks %s", statLogical)
	}
	table := make(map[id]*entry)
	err := ckpt.Replay(s.dir.FS(), dir, fstate, func(rec []byte) error {
		if len(rec) == 0 || rec[0] != statKindSet {
			return fmt.Errorf("not a row: %w", binio.ErrCorrupt)
		}
		k, kn, err := binio.Bytes(rec[1:])
		if err != nil {
			return err
		}
		w, wn, err := window.Decode(rec[1+kn:])
		if err != nil {
			return err
		}
		maxTS, _, err := binio.Varint(rec[1+kn+wn:])
		if err != nil {
			return err
		}
		ident := id{key: string(k), w: w}
		if table[ident] != nil {
			return fmt.Errorf("two rows for %q %v: %w", k, w, binio.ErrCorrupt)
		}
		e := &entry{maxTS: maxTS}
		if s.opts.Predictor != nil {
			if ett, ok := s.opts.Predictor.ETT(w, maxTS); ok {
				e.ett, e.hasETT = ett, true
			}
		}
		table[ident] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("aur: stat stream: %w", err)
	}
	return table, nil
}
