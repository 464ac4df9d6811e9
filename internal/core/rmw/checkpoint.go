package rmw

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
)

// A checkpoint links the segments the index points into and adds the
// liveness file (encodeLiveness) and the buffer dump: a replay stream of
// segment blocks holding the whole write buffer in lifetime order.
const (
	livenessName   = "rmw.live"
	bufferName     = "rmw.buf"
	dumpBlockBytes = 16 << 10
)

// bufAgg is an aggregate, aliased (Put never mutates one), and its identity.
type bufAgg struct {
	ident id
	v     []byte
}

// CheckpointDelta writes a snapshot of the instance into dir. The cut is
// one mu section over the table: the write buffer and, from the indexed
// slots, a liveness bitmap per segment. Then, with only ioMu held, every segment holding a live
// entry goes in, a sealed one hard-linked (ckpt.Cut.Link, under the CRC
// its log kept as it appended), an open one through ckpt.Cut.Log. The cut
// is exact under concurrent writers: the files stay whole, as cleaning and
// reaping need ioMu and a sealed file is never written again.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	segs := s.segs.List() // the table cannot change under ioMu
	s.mu.Lock()
	if s.segs.Closed() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	dump := make([]bufAgg, 0, s.buffered)
	bits := make(map[uint32][]byte, len(segs))
	for ident, sl := range s.table { // none in flight: that needs ioMu
		if sl.buffered {
			dump = append(dump, bufAgg{ident, sl.agg})
			continue
		}
		sp := sl.sp
		if bits[sp.seg] == nil {
			bits[sp.seg] = make([]byte, (s.segs.Get(sp.seg).X.entries+7)/8)
		}
		bits[sp.seg][sp.ord/8] |= 1 << (sp.ord % 8)
	}
	s.mu.Unlock()

	cut, err := ckpt.Begin(s.dir.FS(), dir, parent, parentDir)
	if err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	var live []segLive
	for _, sg := range segs {
		if bits[sg.ID] == nil {
			continue // nothing live: a restore has no use for it
		}
		name, lg := logfile.SegmentName(segmentPrefix, sg.ID), sg.Log
		if !sg.Sealed { // set only with ioMu held too
			if err = lg.Flush(); err == nil {
				err = cut.Log(name, sg.X.epoch, lg.Path(), lg.Size())
			}
		} else if err = lg.Poisoned(); err == nil { // else its file may lack what it appended
			err = cut.Link(name, sg.X.epoch, lg.Path(), lg.Size(), lg.CRC(), lg.DurableOffset() == lg.Size())
		}
		if err != nil {
			return nil, fmt.Errorf("rmw: checkpoint %s: %w", name, err)
		}
		live = append(live, segLive{id: sg.ID, entries: sg.X.entries, bits: bits[sg.ID]})
	}
	// The whole buffer, not a dirty part of it: state that lives less than
	// a barrier interval is all dirty at every cut anyway.
	slices.SortFunc(dump, victimByLifetime)
	if err = cut.Extra(livenessName, encodeLiveness(live)); err == nil {
		err = cut.Stream(bufferName, func(emit func([]byte)) error {
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

// segLive is one segment in a liveness file: id, entry count at the cut
// and bitmap, bit i%8 of byte i/8 for the entry of ordinal i.
type segLive struct {
	id, entries uint32
	bits        []byte
}

func (sl *segLive) live(ord uint32) bool {
	return int(ord/8) < len(sl.bits) && sl.bits[ord/8]&(1<<(ord%8)) != 0
}

// encodeLiveness writes segs, ascending by id, as one frame: their count,
// then per segment its id, entry count and bitmap without its trailing
// zero bytes, length-prefixed.
func encodeLiveness(segs []segLive) []byte {
	p := binio.PutUvarint(nil, uint64(len(segs)))
	for _, sl := range segs {
		p = binio.PutUvarint(binio.PutUvarint(p, uint64(sl.id)), uint64(sl.entries))
		p = binio.PutBytes(p, bytes.TrimRight(sl.bits, "\x00"))
	}
	return binio.AppendRecord(nil, p)
}

// decodeLiveness parses a liveness file, never panicking: what is not one
// whole frame is a *binio.FrameError, and what encodeLiveness could not
// have written (ids not ascending, a bitmap longer than its segment or
// with a bit past its entries) matches binio.ErrCorrupt. Bitmaps alias b.
func decodeLiveness(b []byte) ([]segLive, error) {
	p, n, err := binio.ReadRecord(b)
	if err == binio.ErrShortBuffer || err == nil && n != len(b) {
		err = &binio.FrameError{Reason: "not one whole frame"}
	}
	if err != nil {
		return nil, fmt.Errorf("rmw: liveness file: %w", err)
	}
	bad := func(sid uint64, why string) ([]segLive, error) {
		return nil, fmt.Errorf("rmw: liveness file: segment %d: %s: %w", sid, why, binio.ErrCorrupt)
	}
	uvarint := func() uint64 {
		v, n, e := binio.Uvarint(p)
		p, err = p[n:], cmp.Or(err, e)
		return v
	}
	var out []segLive
	for count := uvarint(); err == nil && count > uint64(len(out)); {
		sid, entries := uvarint(), uvarint()
		bits, n, e := binio.Bytes(p)
		p, err = p[n:], cmp.Or(err, e)
		sl := segLive{id: uint32(sid), entries: uint32(entries), bits: bits}
		switch {
		case err != nil || sid > math.MaxUint32 || entries > math.MaxUint32:
			return bad(sid, "truncated")
		case len(out) > 0 && sl.id <= out[len(out)-1].id:
			return bad(sid, "id not ascending")
		case uint64(len(bits)) > (entries+7)/8:
			return bad(sid, "bitmap longer than the segment")
		case uint64(len(bits))*8 > entries && bits[len(bits)-1]>>(entries%8) != 0:
			return bad(sid, "bit set past the entries")
		}
		out = append(out, sl)
	}
	// Trailing bytes or zeros, overlong varints: not what the encoder writes.
	if err != nil || !bytes.Equal(encodeLiveness(out), b) {
		return bad(0, "not canonical")
	}
	return out, nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory: every segment the liveness file names comes back under its id
// and epoch, sealed, and one scan of it rebuilds the indexed slots and live
// counts from its bitmap; the dump loads into buffered slots. Damage fails it
// with a *binio.FrameError or *logfile.BlockError, never with less state.
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
		return fmt.Errorf("rmw: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	meta, err := ckpt.ReadMeta(fsys, dir)
	var segs []segLive
	if err == nil {
		var lb []byte
		if lb, err = fsys.ReadFile(filepath.Join(dir, livenessName)); err == nil {
			segs, err = decodeLiveness(lb)
		}
	}
	dump := meta.File(bufferName)
	if err == nil && dump == nil {
		err = fmt.Errorf("SEGMENTS lacks %s: %w", bufferName, ckpt.ErrBadMeta)
	}
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	table := make(map[id]slot)
	live := make(map[*segment]int64) // installed under mu at the end
	for _, sl := range segs {
		name := logfile.SegmentName(segmentPrefix, sl.id)
		sg, err := s.restoreSegment(dir, meta, name, sl.id)
		if err == nil {
			err = s.scanLocked(sg, func(at span, e *logfile.BlockEntry) error {
				s.seq = max(s.seq, e.Seq)
				sg.X.entries++
				if !sl.live(at.ord) {
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
		}
		if err == nil && sg.X.entries != sl.entries {
			err = &binio.FrameError{Reason: fmt.Sprintf("%d entries, the liveness file says %d", sg.X.entries, sl.entries)}
		}
		if err != nil {
			return fmt.Errorf("rmw: restore %s: %w", name, err)
		}
	}
	var buffered int
	var bufBytes int64
	err = ckpt.Replay(fsys, dir, dump, func(block []byte) error {
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

// restoreSegment puts segment sid, name, of the checkpoint in dir back and
// registers it sealed: hard-linked, as its inode is never written again,
// or concatenated from pieces and fsynced, as a later cut may link it.
func (s *Store) restoreSegment(dir string, meta *ckpt.Meta, name string, sid uint32) (sg *segment, err error) {
	fstate := meta.File(name)
	if fstate == nil || len(fstate.Segments) == 0 {
		return nil, fmt.Errorf("SEGMENTS lacks it: %w", ckpt.ErrBadMeta)
	}
	fsys, x, dst := s.dir.FS(), segState{epoch: fstate.Epoch}, filepath.Join(s.dir.Root(), name)
	if piece := fstate.Segments[0]; len(fstate.Segments) == 1 {
		var linked bool
		if linked, err = faultfs.LinkOrCopy(fsys, filepath.Join(dir, piece.Name), dst); err == nil {
			sg, err = s.segs.ReopenSealed(sid, x, piece.CRC)
		}
		if err == nil && !linked {
			err = sg.Log.Sync()
		}
	} else if err = ckpt.Materialize(fsys, dir, fstate, dst); err == nil {
		// A file of its own: opening it checksums its frames.
		if sg, err = s.segs.Reopen(sid, logfile.SegmentSealed, x); err == nil {
			err = sg.Log.Sync()
		}
	}
	if err == nil && sg.Log.Size() != fstate.TotalLen() {
		err = fmt.Errorf("%w: %d bytes, SEGMENTS says %d", ckpt.ErrBadMeta, sg.Log.Size(), fstate.TotalLen())
	}
	return sg, err
}
