package rmw

import (
	"bytes"
	"fmt"
	"slices"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
)

// A checkpoint links the segments the index points into and adds the
// liveness section (ckpt.CutSegments) and the buffer dump: a replay stream
// of segment blocks holding the whole write buffer in lifetime order, of
// blocks up to dumpBlockBytes.
const dumpBlockBytes = 16 << 10

// bufAgg is an aggregate, aliased (Put never mutates one), and its identity.
type bufAgg struct {
	ident id
	v     []byte
}

// CheckpointDelta writes a snapshot of the instance into cut. The cut is
// one mu section over the table: the write buffer and, from the indexed
// slots, a liveness bitmap per segment. Then, with only ioMu held, the
// segments go in through ckpt.CutSegments — every one holding a live entry,
// a sealed one hard-linked, an open one copied from where the parent's
// copy ends — and the buffer as a dump.
func (s *Store) CheckpointDelta(cut *ckpt.Cut) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	dump := make([]bufAgg, 0, s.buffered)
	live := make(ckpt.Live)
	for ident, sl := range s.table { // none in flight: that needs ioMu
		if sl.buffered {
			dump = append(dump, bufAgg{ident, sl.agg})
		} else {
			live.Set(s.segs, sl.sp.seg, sl.sp.ord)
		}
	}
	s.mu.Unlock()

	err := ckpt.CutSegments(cut, s.segs, live)
	// The whole buffer, not a dirty part of it: state that lives less than
	// a barrier interval is all dirty at every cut anyway.
	slices.SortFunc(dump, victimByLifetime)
	if err == nil {
		err = cut.Stream(ckpt.KindDump, func(emit func([]byte)) error {
			bw := logfile.BlockWriter{Bound: dumpBlockBytes, Emit: func(block []byte, _, _ int) error {
				emit(block)
				return nil
			}}
			for _, b := range dump {
				_, _, _ = bw.Add(s.seq, b.ident.key, b.ident.w, [][]byte{b.v}) // Emit never fails
			}
			return bw.Flush()
		})
	}
	if err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	return cut.Finish()
}

// Restore rebuilds a freshly-opened (empty) instance from its part of a
// checkpoint: every segment the liveness section names comes back under its id
// and epoch, sealed (ckpt.RestoreSegments), and one scan of it rebuilds the
// indexed slots and live counts from its bitmap; the dump loads into
// buffered slots. Damage fails it with a *binio.FrameError or
// *logfile.BlockError, never with less state.
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
		return fmt.Errorf("rmw: restore into a non-empty store")
	}
	table := make(map[id]slot)
	live := make(map[*segment]int64) // installed under mu at the end
	err := ckpt.RestoreSegments(s.segs, src, func(sg *segment, sl *ckpt.SegLive) error {
		var entries uint32
		err := s.scanLocked(sg, func(at span, e *logfile.BlockEntry) error {
			s.seq = max(s.seq, e.Seq)
			entries++
			if !sl.Live(at.ord) {
				return nil
			}
			ident := id{key: string(e.Key), w: e.Window}
			if _, dup := table[ident]; dup {
				return &logfile.BlockError{Reason: fmt.Sprintf("%v live twice", ident)}
			}
			table[ident] = slot{sp: at, indexed: true}
			live[sg] += int64(at.share)
			return nil
		})
		if err == nil && entries != sl.Entries {
			err = &binio.FrameError{Reason: fmt.Sprintf("%d entries, the liveness section says %d", entries, sl.Entries)}
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	var buffered int
	var bufBytes int64
	err = src.Replay(ckpt.KindDump, func(block []byte) error {
		_, err := logfile.DecodeSegmentBlock(block, func(e *logfile.BlockEntry) error {
			ident := id{key: string(e.Key), w: e.Window}
			if _, twice := table[ident]; twice || len(e.Values) != 1 {
				return &logfile.BlockError{Reason: fmt.Sprintf("%v: %d values, or not its one copy", ident, len(e.Values))}
			}
			s.seq = max(s.seq, e.Seq)
			table[ident] = slot{agg: bytes.Clone(e.Values[0]), buffered: true}
			buffered++
			bufBytes += int64(len(e.Values[0]))
			return nil
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	s.mu.Lock()
	s.table, s.buffered, s.bufBytes = table, buffered, bufBytes
	for sg, n := range live {
		sg.Live = n
	}
	s.mu.Unlock()
	return s.segs.Reap()
}
