package ckpt

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
)

// A segment store — AUR or RMW, each a logfile.Segments whose table points
// at its entries by (segment, ordinal) — cuts and restores through one path:
// CutSegments links the sealed segments its table points into, copies what
// the open ones gained since the parent, and writes one liveness section,
// per segment a bitmap of the entries live at the cut; RestoreSegments puts
// those segments back sealed and hands each to the store's scan with its
// bitmap.

// SegLive is one segment in a liveness section: id, entry count at the cut and
// bitmap, bit i%8 of byte i/8 for the entry of ordinal i.
type SegLive struct {
	ID, Entries uint32
	Bits        []byte
}

// Live reports whether the entry of ordinal ord was live at the cut.
func (sl *SegLive) Live(ord uint32) bool {
	return int(ord/8) < len(sl.Bits) && sl.Bits[ord/8]&(1<<(ord%8)) != 0
}

// Live collects a cut's bitmaps, one per segment holding anything live.
type Live map[uint32][]byte

// Set marks the entry of ordinal ord of segment seg of ss live; the caller
// holds ss's ioMu.
func (l Live) Set(ss *logfile.Segments, seg, ord uint32) {
	b := l[seg]
	if b == nil {
		b = make([]byte, (ss.Get(seg).Entries+7)/8)
		l[seg] = b
	}
	b[ord/8] |= 1 << (ord % 8)
}

// EncodeLiveness writes segs, ascending by id, as one frame: their count,
// then per segment its id, entry count and bitmap without its trailing
// zero bytes, length-prefixed.
func EncodeLiveness(segs []SegLive) []byte {
	p := binio.PutUvarint(nil, uint64(len(segs)))
	for _, sl := range segs {
		p = binio.PutUvarint(binio.PutUvarint(p, uint64(sl.ID)), uint64(sl.Entries))
		p = binio.PutBytes(p, bytes.TrimRight(sl.Bits, "\x00"))
	}
	return binio.AppendRecord(nil, p)
}

// DecodeLiveness parses a liveness section, never panicking: what is not one
// whole frame is a *binio.FrameError, and what EncodeLiveness could not
// have written (ids not ascending, a bitmap longer than its segment or
// with a bit past its entries) matches binio.ErrCorrupt. Bitmaps alias b.
func DecodeLiveness(b []byte) ([]SegLive, error) {
	p, n, err := binio.ReadRecord(b)
	if err == binio.ErrShortBuffer || err == nil && n != len(b) {
		err = &binio.FrameError{Reason: "not one whole frame"}
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: liveness section: %w", err)
	}
	bad := func(sid uint64, why string) ([]SegLive, error) {
		return nil, fmt.Errorf("ckpt: liveness section: segment %d: %s: %w", sid, why, binio.ErrCorrupt)
	}
	uvarint := func() uint64 {
		v, n, e := binio.Uvarint(p)
		p, err = p[n:], cmp.Or(err, e)
		return v
	}
	var out []SegLive
	for count := uvarint(); err == nil && count > uint64(len(out)); {
		sid, entries := uvarint(), uvarint()
		bits, n, e := binio.Bytes(p)
		p, err = p[n:], cmp.Or(err, e)
		sl := SegLive{ID: uint32(sid), Entries: uint32(entries), Bits: bits}
		switch {
		case err != nil || sid > math.MaxUint32 || entries > math.MaxUint32:
			return bad(sid, "truncated")
		case len(out) > 0 && sl.ID <= out[len(out)-1].ID:
			return bad(sid, "id not ascending")
		case uint64(len(bits)) > (entries+7)/8:
			return bad(sid, "bitmap longer than the segment")
		case uint64(len(bits))*8 > entries && bits[len(bits)-1]>>(entries%8) != 0:
			return bad(sid, "bit set past the entries")
		}
		out = append(out, sl)
	}
	// Trailing bytes or zeros, overlong varints: not what the encoder writes.
	if err != nil || !bytes.Equal(EncodeLiveness(out), b) {
		return bad(0, "not canonical")
	}
	return out, nil
}

// CutSegments records in c every segment of ss that live holds a bitmap
// for — the others hold nothing a restore needs — and then the liveness
// section. A sealed segment is hard-linked (Link, under the CRC its log
// kept as it appended), an open one goes through Log. The cut is exact
// under concurrent writers: the caller holds ss's ioMu, so the files stay
// whole, as cleaning and reaping need it, and a sealed file is never
// written again.
func CutSegments(c *Cut, ss *logfile.Segments, live Live) error {
	var segs []SegLive
	for _, sg := range ss.List() {
		if live[sg.ID] == nil {
			continue
		}
		logical, lg := ss.Name(sg.ID), sg.Log
		var err error
		if !sg.Sealed { // set only with ioMu held too
			if err = lg.Flush(); err == nil {
				err = c.Log(logical, sg.Epoch, lg.Path(), lg.Size())
			}
		} else if err = lg.Poisoned(); err == nil { // else its file may lack what it appended
			err = c.Link(logical, sg.Epoch, lg.Path(), lg.Size(), lg.CRC(), lg.DurableOffset() == lg.Size())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", logical, err)
		}
		segs = append(segs, SegLive{ID: sg.ID, Entries: sg.Entries, Bits: live[sg.ID]})
	}
	return c.Put(KindLive, EncodeLiveness(segs))
}

// RestoreSegments reads src's liveness section and puts every segment it
// names back into the empty set ss under its id and epoch, sealed —
// hard-linked when the checkpoint holds it as one file, as its inode is
// never written again, or concatenated from pieces and fsynced, as a later
// cut may link it — with its Entries from the section; then scan rebuilds
// the store's table from it and its bitmap. A checkpoint without the
// section fails with an ErrBadCut. The caller holds ss's ioMu.
func RestoreSegments(ss *logfile.Segments, src *Source, scan func(sg *logfile.Segment, sl *SegLive) error) error {
	b, err := src.Section(KindLive)
	if err != nil {
		return err
	}
	segs, err := DecodeLiveness(b)
	if err != nil {
		return err
	}
	fsys := ss.Dir().FS()
	for i := range segs {
		sl := &segs[i]
		sg, err := restoreSegment(ss, fsys, src.Dir, src.Meta, sl.ID)
		if err == nil {
			sg.Entries = sl.Entries
			err = scan(sg, sl)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", ss.Name(sl.ID), err)
		}
	}
	return nil
}

// restoreSegment puts segment sid of the checkpoint in dir back into ss.
func restoreSegment(ss *logfile.Segments, fsys faultfs.FS, dir string, meta *Meta, sid uint32) (sg *logfile.Segment, err error) {
	fstate := meta.File(ss.Name(sid))
	if fstate == nil || len(fstate.Segments) == 0 {
		return nil, fmt.Errorf("the files section lacks it: %w", ErrBadMeta)
	}
	dst := filepath.Join(ss.Dir().Root(), ss.Name(sid))
	if piece := fstate.Segments[0]; len(fstate.Segments) == 1 {
		var linked bool
		if linked, err = faultfs.LinkOrCopy(fsys, filepath.Join(dir, piece.Name), dst); err == nil {
			sg, err = ss.ReopenSealed(sid, fstate.Epoch, piece.CRC)
		}
		if err == nil && !linked {
			err = sg.Log.Sync()
		}
	} else if err = Materialize(fsys, dir, fstate, dst); err == nil {
		// A file of its own: opening it checksums its frames.
		if sg, err = ss.Reopen(sid, fstate.Epoch); err == nil {
			err = sg.Log.Sync()
		}
	}
	if err == nil && sg.Log.Size() != fstate.TotalLen() {
		err = fmt.Errorf("%w: %d bytes, the files section says %d", ErrBadMeta, sg.Log.Size(), fstate.TotalLen())
	}
	return sg, err
}
