package aur

import (
	"bytes"
	"fmt"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// The Stat table is the instance's dump section of a checkpoint: a replay
// stream (ckpt.Cut.Stream) written whole at every cut, one record per
// identity whose batches are on disk at the cut — every live identity,
// since the cut is a drain. A record is the kind byte statKindSet, the
// key, the initial window and maxTS. It is not a delta on the parent's
// stream: sessions turn over within a barrier, so nearly every row differs
// from the parent cut's (DESIGN.md §14).
const statKindSet byte = 0

// appendStatRow appends r's Stat record to dst.
func appendStatRow(dst []byte, r statRow) []byte {
	dst = binio.PutBytes(append(dst, statKindSet), []byte(r.ident.key))
	return binio.PutVarint(r.ident.w.AppendTo(dst), r.maxTS)
}

// CheckpointDelta writes a snapshot of the instance into cut. It drains
// the write buffer but does not clean; the drain's last mu section marks
// in a bitmap per segment the batches the table points at, and
// ckpt.CutSegments records every segment holding one — a sealed segment
// hard-linked (from the parent when the parent holds it), the open head
// and survivor by what they gained since the parent's cut — and the
// bitmaps as the liveness section. Consumed batches stay in the segments, and
// their bits clear, so Restore cannot resurrect them. Nothing is fsynced
// here — the returned Result's NeedSync lists every written segment for
// the composite store's group-commit sync window.
//
// CheckpointDelta holds only ioMu, so concurrent Appends and
// buffer-served reads proceed while the snapshot is written. The cut is
// the mu section in which the drain detaches the buffer, which also
// collects the Stat table: the stream holds exactly the identities whose
// values the segments hold at the cut, with the maxTS of the tuples that
// are in them. No batch reference can change between that section and the
// one that marks the bitmaps: that needs ioMu.
func (s *Store) CheckpointDelta(cut *ckpt.Cut) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	c := cutState{live: make(ckpt.Live)}
	if err := s.flushLocked(true, &c); err != nil {
		return nil, err
	}
	err := ckpt.CutSegments(cut, s.segs, c.live)
	if err == nil {
		err = cut.Stream(ckpt.KindDump, func(emit func([]byte)) error {
			var payload []byte
			for _, r := range c.rows {
				payload = appendStatRow(payload[:0], r)
				emit(payload)
			}
			return nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("aur: checkpoint: %w", err)
	}
	return cut.Finish()
}

// Restore rebuilds a freshly-opened (empty) instance from its part of a
// checkpoint. The Stat stream gives the table its entries and ETTs. Every
// segment the liveness section names comes back under its id and epoch,
// sealed (ckpt.RestoreSegments) — so the delta chain continues across the
// restart — and one scan of its entries gives the entries whose bits are
// set their references, the segments their live counts and the store its
// flush sequence. A row with no live batch, or a live batch with no row,
// fails the restore (binio.ErrCorrupt); a checkpoint without a liveness
// section fails with a ckpt.ErrBadCut.
func (s *Store) Restore(src *ckpt.Source) error {
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
	table, err := s.loadStatStream(src)
	if err != nil {
		return err
	}
	err = ckpt.RestoreSegments(s.segs, src, func(sg *segment, sl *ckpt.SegLive) error {
		return s.scanSegLocked(sg, func(ord uint32, be *logfile.BlockEntry) error {
			s.seq = max(s.seq, be.Seq)
			if !sl.Live(ord) {
				return nil
			}
			e := table[id{key: string(be.Key), w: be.Window}]
			if e == nil {
				return fmt.Errorf("a live batch of %q %v has no Stat row: %w", be.Key, be.Window, binio.ErrCorrupt)
			}
			e.refs = append(e.refs, ref{seg: sg.ID, ord: ord, share: uint32(be.Size)})
			sg.Live += int64(be.Size)
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("aur: restore: %w", err)
	}
	for ident, e := range table {
		if len(e.refs) == 0 {
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
func (s *Store) loadStatStream(src *ckpt.Source) (map[id]*entry, error) {
	table := make(map[id]*entry)
	var again []byte
	err := src.Replay(ckpt.KindDump, func(rec []byte) error {
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
		// Only the bytes appendStatRow writes are a row: one with bytes
		// past maxTS, or a field coded longer than it need be, is not.
		if again = appendStatRow(again[:0], statRow{ident, maxTS}); !bytes.Equal(again, rec) {
			return fmt.Errorf("row for %q %v is not canonical: %w", k, w, binio.ErrCorrupt)
		}
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
