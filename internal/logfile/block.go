package logfile

import (
	"encoding/binary"
	"fmt"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Segment block format, shared by the AUR and RMW segmented logs. A segment
// is one log of binio v1 frames, each a *block* of entries written by one
// flush, or moved by a cleaning pass:
//
//	uvarint seq      sequence number of the flush that first wrote them
//	uvarint count    number of entries, at least 1
//	count × entry:
//	    uvarint keyLen, key
//	    varint  Δstart   window start − the previous entry's (the first's − 0)
//	    varint  Δwidth   window end − start, − the previous entry's width
//	    uvarint nvalues  at least 1
//	    nvalues × (uvarint len, value)
//
// An AUR entry is a flushed value batch; an RMW entry holds exactly one
// value, the aggregate. The block carries its entries' locations with their
// values, and its one checksum covers them all. A writer that puts entries
// of neighbouring windows next to each other gets the deltas down to a byte
// or two where an absolute start and width took three each.
//
// An entry's encoded size, deltas included, is what it counts for in its
// segment's live bytes; the first entry of a block counts the block's
// header and frame too, so a segment whose every entry is live counts its
// whole size. An entry cleaning moves is counted at the size it re-encodes
// to.

// BlockError reports a segment block that is not canonical: anything but
// what a BlockWriter writes. It matches binio.ErrCorrupt.
type BlockError struct{ Reason string }

func (e *BlockError) Error() string { return "logfile: bad segment block: " + e.Reason }

func (e *BlockError) Unwrap() error { return binio.ErrCorrupt }

// BlockEntry is one entry of a segment block: the values of (Key, Window).
// Key and Values alias the block, and Values is reused from one entry to
// the next.
type BlockEntry struct {
	Key    []byte
	Window window.Window
	Values [][]byte
	Seq    uint64 // the flush that first wrote the entry
	// Off is the entry's offset in the block, and Size its encoded bytes,
	// the block header's included for the first entry.
	Off, Size int
}

// blockDecoder reads a block's fields, recording the first reason it is
// not canonical; from then on it has no bytes left, and every read returns
// zero.
type blockDecoder struct {
	b   []byte
	why string
}

func (d *blockDecoder) fail(why string) {
	if d.why == "" {
		d.why, d.b = why, nil
	}
}

func (d *blockDecoder) uvarint() uint64 {
	if b := d.b; len(b) > 0 && b[0] < 0x80 { // most fields take a byte
		d.b = b[1:]
		return uint64(b[0])
	}
	return d.longUvarint()
}

func (d *blockDecoder) longUvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("short, overlong or padded varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zig-zag signed varint.
func (d *blockDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a count of elements at least min bytes long each.
func (d *blockDecoder) count(min int) uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return n
}

func (d *blockDecoder) bytes() []byte {
	n := d.count(1)
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// entry reads one entry's fields past its window deltas: key, the deltas
// as they are, and the values, appended to e.Values[:0]. It reports
// whether the entry decoded.
func (d *blockDecoder) entry(e *BlockEntry, i uint64) (dstart, dwidth int64, ok bool) {
	e.Key = d.bytes()
	dstart, dwidth = d.varint(), d.varint()
	nv := d.count(1)
	if nv == 0 {
		d.fail(fmt.Sprintf("entry %d has no values", i))
	}
	e.Values = e.Values[:0]
	for j := uint64(0); j < nv && d.why == ""; j++ {
		// bytes, inline for a value shorter than 128 bytes: the decoder's
		// hottest read.
		if b := d.b; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
			v := b[1 : 1+b[0] : 1+b[0]]
			e.Values, d.b = append(e.Values, v), b[1+b[0]:]
		} else {
			e.Values = append(e.Values, d.bytes())
		}
	}
	return dstart, dwidth, d.why == ""
}

// DecodeSegmentBlock calls fn for each entry of the segment block b, in
// order, and returns the block's entry count. It returns fn's first error
// as it is, and a *BlockError for a block that is not canonical: minimal
// varints, a count and every nvalues at least 1, no trailing bytes.
func DecodeSegmentBlock(b []byte, fn func(e *BlockEntry) error) (int, error) {
	d := blockDecoder{b: b}
	var e BlockEntry
	e.Seq = d.uvarint()
	n := d.count(5) // key length, Δstart, Δwidth, nvalues, one value length
	if n == 0 {
		d.fail("no entries")
	}
	var start int64
	var width uint64
	rest := len(b)
	for i := uint64(0); i < n && d.why == ""; i++ {
		e.Off = len(b) - len(d.b)
		dstart, dwidth, ok := d.entry(&e, i)
		if !ok {
			break
		}
		start += dstart
		width += uint64(dwidth)
		e.Window = window.Window{Start: start, End: start + int64(width)}
		e.Size, rest = rest-len(d.b), len(d.b)
		if err := fn(&e); err != nil {
			return 0, err
		}
	}
	if len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	if d.why != "" {
		return 0, &BlockError{d.why}
	}
	return int(n), nil
}

// SegmentEntryAt decodes the one entry at offset off of segment block b —
// its key and values, appended to e.Values[:0], and its Off and Size, the
// entry's own bytes — without decoding the entries before it. Its window
// deltas are relative to those entries, so e.Window and e.Seq are left
// zero: a point read names the identity it wants and checks the key. An
// offset outside the block's entries, or bytes that are not one canonical
// entry, are a *BlockError.
func SegmentEntryAt(b []byte, off int, e *BlockEntry) error {
	if off < 2 || off >= len(b) { // a block starts with seq and count
		return &BlockError{fmt.Sprintf("entry offset %d outside a %d-byte block", off, len(b))}
	}
	d := blockDecoder{b: b[off:]}
	if _, _, ok := d.entry(e, 0); !ok {
		return &BlockError{fmt.Sprintf("entry at %d: %s", off, d.why)}
	}
	e.Window, e.Seq = window.Window{}, 0
	e.Off, e.Size = off, len(b)-off-len(d.b)
	return nil
}

// BlockWriter packs entries into blocks and hands each finished block to
// Emit with its entry count and the bytes of those entries: what the block
// takes beyond them, once framed, its first entry counts too. A block is
// closed when its entries reach Bound bytes or when the next entry was
// first written by another flush. Each store sets Bound from its own
// constant.
type BlockWriter struct {
	Emit  func(block []byte, entries, body int) error
	Bound int

	body  []byte // encoded entries of the open block
	count int
	seq   uint64 // flush sequence number of its entries
	start int64  // the last entry's window start
	width uint64 // and width
	block []byte
}

// Add appends the values of (key, win), first written by flush seq, and
// returns the offset of its entry among the open block's entries and its
// size. A failed Emit of the block it closes leaves that block open and
// the entry out.
func (w *BlockWriter) Add(seq uint64, key string, win window.Window, values [][]byte) (off, n int, err error) {
	if w.count > 0 && (seq != w.seq || len(w.body) >= w.Bound) {
		if err := w.Flush(); err != nil {
			return 0, 0, err
		}
	}
	off = len(w.body)
	return off, w.put(seq, key, win, values), nil
}

// put appends an entry to the open block, opening one for seq if none is,
// and returns its encoded size; Add decides where blocks close.
func (w *BlockWriter) put(seq uint64, key string, win window.Window, values [][]byte) int {
	if w.count == 0 {
		w.seq, w.start, w.width = seq, 0, 0
	}
	n := len(w.body)
	width := uint64(win.End - win.Start)
	w.body = binio.PutString(w.body, key)
	w.body = binio.PutVarint(w.body, win.Start-w.start)
	w.body = binio.PutVarint(w.body, int64(width-w.width))
	w.body = binio.PutUvarint(w.body, uint64(len(values)))
	for _, v := range values {
		w.body = binio.PutBytes(w.body, v)
	}
	w.start, w.width = win.Start, width
	w.count++
	return len(w.body) - n
}

// Flush emits the open block, if any. A failed Emit leaves the block
// open, so nothing is dropped silently.
func (w *BlockWriter) Flush() error {
	if w.count == 0 {
		return nil
	}
	w.block = binio.PutUvarint(binio.PutUvarint(w.block[:0], w.seq), uint64(w.count))
	w.block = append(w.block, w.body...)
	if err := w.Emit(w.block, w.count, len(w.body)); err != nil {
		return err
	}
	w.body, w.count = w.body[:0], 0
	return nil
}
