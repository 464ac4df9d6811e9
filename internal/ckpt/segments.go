package ckpt

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/logfile"
)

// A segment store — AUR or RMW, each a logfile.Segments whose table points
// at its entries by (segment, ordinal) — cuts and restores through one path:
// CutSegments seals the open segments its table points into and links
// every segment it points into, and writes one liveness section, per
// segment a bitmap of the entries live at the cut; RestoreSegments links
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
// section. An open head or survivor among them is sealed first, so the
// store opens a fresh one on its next append; each segment is then
// hard-linked under the CRC its log kept as it appended (Cut.Link). The cut
// is exact under concurrent writers: the caller holds ss's ioMu, so the
// files stay whole, as cleaning and reaping need it, and a sealed file is
// never written again.
func CutSegments(c *Cut, ss *logfile.Segments, live Live) error {
	var segs []SegLive
	for _, sg := range ss.List() {
		if live[sg.ID] == nil {
			continue
		}
		if !sg.Sealed { // set only with ioMu held too
			ss.Seal(sg, true)
		}
		logical, lg := ss.Name(sg.ID), sg.Log
		err := lg.Poisoned() // else its file may lack what it appended
		if err == nil {
			err = c.Link(logical, sg.Epoch, lg.Path(), lg.Size(), lg.CRC(), lg.DurableOffset() == lg.Size())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", logical, err)
		}
		segs = append(segs, SegLive{ID: sg.ID, Entries: sg.Entries, Bits: live[sg.ID]})
	}
	return c.Put(KindLive, EncodeLiveness(segs))
}

// RestoreSegments reads src's liveness section and links every segment it
// names back into the empty set ss under its id and epoch, sealed
// (Source.Restore), with its Entries from the section; then scan rebuilds
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
		name := ss.Name(sl.ID)
		f := src.Meta.File(name)
		var sg *logfile.Segment
		if f == nil {
			err = fmt.Errorf("the files section lacks it: %w", ErrBadMeta)
		} else {
			err = src.Restore(fsys, f, filepath.Join(ss.Dir().Root(), name), func() (*logfile.Log, error) {
				var err error
				if sg, err = ss.ReopenSealed(sl.ID, f.Epoch, f.CRC); err != nil {
					return nil, err
				}
				return sg.Log, nil
			})
		}
		if err == nil {
			sg.Entries = sl.Entries
			err = scan(sg, sl)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
