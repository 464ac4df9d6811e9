package aur

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
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

// consumedSnapshotName persists the consumed set and dead-byte counter in
// a checkpoint. CheckpointDelta does not compact before copying, so the
// snapshot's data log still contains consumed (fetch-&-removed) entries;
// Restore loads this file into s.consumed before scanning the index so
// those entries cannot resurrect. One record for the dead-byte counter,
// then one per consumed identity: its identBytes and the data-log offset
// below which its batches are dead. A record that ends after the
// identBytes — what stores wrote before the offset existed — means every
// batch the snapshot's data log holds.
const consumedSnapshotName = "consumed.snap"

func encodeConsumedSnapshot(consumed map[string]int64, dead int64) []byte {
	var buf, payload []byte
	payload = binio.PutVarint(payload, dead)
	buf = binio.AppendRecord(buf, payload)
	for prefix, mark := range consumed {
		payload = binio.PutBytes(payload[:0], []byte(prefix))
		payload = binio.PutUvarint(payload, uint64(mark))
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// loadConsumedSnapshot reads a checkpoint's consumed.snap; dataLen is the
// length of the checkpoint's data log, the mark of a record without one.
func (s *Store) loadConsumedSnapshot(path string, dataLen int64) (map[string]int64, int64, error) {
	b, err := s.dir.FS().ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	header, n, err := binio.ReadRecord(b)
	if err != nil {
		return nil, 0, fmt.Errorf("aur: consumed snapshot: %w", err)
	}
	b = b[n:]
	dead, _, err := binio.Varint(header)
	if err != nil {
		return nil, 0, fmt.Errorf("aur: consumed snapshot: %w", err)
	}
	out := make(map[string]int64)
	for len(b) > 0 {
		payload, n, err := binio.ReadRecord(b)
		if err != nil {
			return nil, 0, fmt.Errorf("aur: consumed snapshot: %w", err)
		}
		b = b[n:]
		prefix, n, err := binio.Bytes(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("aur: consumed snapshot: %w", err)
		}
		mark := dataLen
		if payload = payload[n:]; len(payload) > 0 {
			m, _, err := binio.Uvarint(payload)
			if err != nil || m > uint64(dataLen) {
				return nil, 0, fmt.Errorf("aur: consumed snapshot: consumed mark: %w", binio.ErrCorrupt)
			}
			mark = int64(m)
		}
		out[string(prefix)] = mark
	}
	return out, dead, nil
}

// CheckpointDelta writes a snapshot of the instance into dir. It flushes
// the write buffer but does not compact: the data and index logs are
// recorded as segment lists extending the parent checkpoint's (same
// generation epoch, parent length within the live log), so only bytes
// appended since the parent's cut are copied and the rest is hard-linked
// across (ckpt.Cut.Log); a nil parent copies both logs whole. Because
// the uncompacted data log still contains consumed entries, the consumed
// set and dead-byte counter are persisted in consumed.snap; Restore
// loads it before scanning the index so consumed state cannot resurrect.
// A compaction between the two cuts swaps the generation epoch and falls
// this instance back to a full copy. Nothing is fsynced here — the
// returned Result's NeedSync lists every written file for the composite
// store's group-commit sync window.
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
	if err := s.dataLog.Flush(); err != nil {
		return nil, err
	}
	if err := s.indexLog.Flush(); err != nil {
		return nil, err
	}
	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("aur: checkpoint: %w", err)
	}
	if err := cut.Log("data.log", s.genEpoch, s.dataLog.Path(), s.dataLog.Size()); err != nil {
		return nil, err
	}
	if err := cut.Log("index.log", s.genEpoch, s.indexLog.Path(), s.indexLog.Size()); err != nil {
		return nil, err
	}
	if err := cut.Extra(consumedSnapshotName, encodeConsumedSnapshot(s.consumed, s.dead)); err != nil {
		return nil, err
	}
	err = cut.Stream(statDeltaLogical, statIncr, func(emit func([]byte) error) error {
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
		s.statMarks.Commit(captured, cutID)
		s.mu.Unlock()
	}
	return res, nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory. On-disk locations come back from the materialized index
// log; the Stat table and ETTs come back from the Stat stream.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.buf) != 0 || len(s.onDisk) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("aur: restore into a non-empty store")
	}
	s.mu.Unlock()
	if s.dataLog.Size() != 0 {
		return fmt.Errorf("aur: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	// Replace the empty generation with the checkpointed logs, each
	// materialized by concatenating its segments; the generation epoch
	// and the consumed set carry over so the delta chain continues across
	// the restart and consumed entries in the uncompacted data log cannot
	// resurrect.
	meta, err := ckpt.ReadMeta(fsys, dir)
	if err != nil {
		return fmt.Errorf("aur: restore: %w", err)
	}
	dstate, istate := meta.File("data.log"), meta.File("index.log")
	if dstate == nil || istate == nil {
		return fmt.Errorf("aur: restore: SEGMENTS lacks data.log/index.log")
	}
	oldData, oldIndex := s.dataLog, s.indexLog
	gen := s.gen + 1
	dataName := fmt.Sprintf("data-%06d.log", gen)
	indexName := fmt.Sprintf("index-%06d.log", gen)
	if err := ckpt.Materialize(fsys, dir, dstate, filepath.Join(s.dir.Root(), dataName)); err != nil {
		return fmt.Errorf("aur: restore: %w", err)
	}
	if err := ckpt.Materialize(fsys, dir, istate, filepath.Join(s.dir.Root(), indexName)); err != nil {
		return fmt.Errorf("aur: restore: %w", err)
	}
	consumed, dead, err := s.loadConsumedSnapshot(filepath.Join(dir, consumedSnapshotName), dstate.TotalLen())
	if err != nil {
		return err
	}
	s.consumed, s.dead = consumed, dead
	s.genEpoch = dstate.Epoch
	data, err := s.dir.Open(dataName)
	if err != nil {
		return err
	}
	index, err := s.dir.Open(indexName)
	if err != nil {
		data.Close()
		return err
	}
	s.dataLog, s.indexLog, s.gen = data, index, gen
	oldData.Remove()
	oldIndex.Remove()

	// Rebuild onDisk byte accounting from the index log.
	newOnDisk := make(map[id]int64)
	err = s.scanIndexLocked(func(e *indexEntry) error {
		if !s.consumedEntry(e) {
			newOnDisk[id{key: string(e.Key), w: e.Window}] += int64(e.Len)
		}
		return nil
	})
	if err != nil {
		return err
	}
	newStat, err := s.loadStatStream(dir, meta)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for ident, n := range newOnDisk {
		s.onDisk[ident] = n
	}
	for ident, st := range newStat {
		s.stat[ident] = st
	}
	// The restored table IS the state of this cut: record its id so the
	// next checkpoint can extend the stream.
	s.statMarks.Restored(meta.CutID)
	s.mu.Unlock()
	return nil
}

// loadStatStream replays a checkpoint's Stat stream (the
// stat.dlt segment chain) into a fresh table: set records install a
// row, tombstones remove one, later records win.
func (s *Store) loadStatStream(dir string, meta *ckpt.Meta) (map[id]*statEntry, error) {
	fstate := meta.File(statDeltaLogical)
	if fstate == nil {
		return nil, fmt.Errorf("aur: restore: SEGMENTS lacks %s", statDeltaLogical)
	}
	fsys := s.dir.FS()
	out := make(map[id]*statEntry)
	for _, seg := range fstate.Segments {
		b, err := fsys.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			return nil, err
		}
		for len(b) > 0 {
			payload, n, err := binio.ReadRecord(b)
			if err != nil {
				return nil, fmt.Errorf("aur: stat stream: %w", err)
			}
			b = b[n:]
			if len(payload) == 0 {
				return nil, fmt.Errorf("aur: stat stream: empty record")
			}
			kind := payload[0]
			payload = payload[1:]
			k, kn, err := binio.Bytes(payload)
			if err != nil {
				return nil, fmt.Errorf("aur: stat stream: %w", err)
			}
			payload = payload[kn:]
			w, wn, err := window.Decode(payload)
			if err != nil {
				return nil, fmt.Errorf("aur: stat stream: %w", err)
			}
			payload = payload[wn:]
			ident := id{key: string(k), w: w}
			switch kind {
			case statKindTomb:
				delete(out, ident)
			case statKindSet:
				maxTS, _, err := binio.Varint(payload)
				if err != nil {
					return nil, fmt.Errorf("aur: stat stream: %w", err)
				}
				st := &statEntry{maxTS: maxTS}
				if s.opts.Predictor != nil {
					if ett, ok := s.opts.Predictor.ETT(w, maxTS); ok {
						st.ett, st.hasETT = ett, true
					}
				}
				out[ident] = st
			default:
				return nil, fmt.Errorf("aur: stat stream: unknown record kind %d", kind)
			}
		}
	}
	return out, nil
}
