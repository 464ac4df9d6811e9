package aur

import (
	"encoding/binary"
	"fmt"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Segment log format. A segment is one log, aur-NNNNNN.log, of binio v1
// frames, each a *block* of value batches written by one flush — or moved
// by a cleaning pass, batches of one flush at a time:
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
// A block carries its batches' locations with their values: a miss that
// scans the segments holding what it selected has the values in hand when
// it finds them, so there is no index log beside the data and no second
// read. A flush writes its batches in byTrigger order, so neighbouring
// entries are sessions that opened close together and share a width, and
// the deltas take a byte or two where an absolute start and width took
// three each.
//
// A segment does not ascend by age: cleaning fills a survivor emptiest
// victim first, over several passes. The sequence number is what orders an
// identity's batches — across segments and within a survivor — and a load
// installs them by it, so Get returns values in append order however often
// they were moved.
//
// An entry's encoded size, deltas included, is what its batch counts for in
// the segment's live bytes — the first entry of a block counts the block's
// header and frame too, so a segment whose every batch is live counts its
// whole size. A batch cleaning moves is counted at the size it re-encodes
// to.

// segmentBlockBytes is the entry payload at which a block is closed. It was
// picked by the bytes a miss reads back: on the session benchmark (seed 1)
// blocks closed at 1, 4 and 16 KiB read 254.2, 252.2 and 251.8 MB and
// wrote 8.98, 8.91 and 8.90 B an event, and 64 KiB measured as 16 — an
// eviction's batches rarely fill 16 KiB, so most flushes are one block.
// A scan that finds what it wants stops decoding mid-block either way.
const segmentBlockBytes = 16 << 10

// BlockError reports a segment block that is not canonical: anything but
// what a blockWriter writes. It matches binio.ErrCorrupt.
type BlockError struct{ Reason string }

func (e *BlockError) Error() string { return "aur: bad segment block: " + e.Reason }

func (e *BlockError) Unwrap() error { return binio.ErrCorrupt }

// BlockEntry is one entry of a segment block: a flushed value batch of
// (Key, Window). Key and Values alias the block, and Values is reused from
// one entry to the next.
type BlockEntry struct {
	Key    []byte
	Window window.Window
	Values [][]byte
	Seq    uint64 // the flush that first wrote the batch
	// Size is the entry's encoded bytes, the block header's included for
	// the first entry.
	Size int
}

// appendIdent appends the canonical encoding of identity (key, w) to dst:
// the consumed marks and a scan's selection are keyed by it.
func appendIdent[K string | []byte](dst []byte, key K, w window.Window) []byte {
	dst = binio.PutUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binio.PutVarint(dst, w.Start)
	// The width is taken in wrapping arithmetic, so every (start, end)
	// pair round-trips, including ones whose difference overflows.
	return binio.PutUvarint(dst, uint64(w.End-w.Start))
}

// identBytes returns the canonical byte encoding of an identity.
func identBytes(ident id) []byte { return appendIdent(nil, ident.key, ident.w) }

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
		e.Key = d.bytes()
		start += d.varint()
		width += uint64(d.varint())
		nv := d.count(1)
		if nv == 0 {
			d.fail(fmt.Sprintf("entry %d has no values", i))
		}
		e.Values = e.Values[:0]
		for j := uint64(0); j < nv && d.why == ""; j++ {
			// bytes, inline for a value shorter than 128 bytes: the
			// decoder's hottest read.
			if b := d.b; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
				v := b[1 : 1+b[0] : 1+b[0]]
				e.Values, d.b = append(e.Values, v), b[1+b[0]:]
			} else {
				e.Values = append(e.Values, d.bytes())
			}
		}
		if d.why != "" {
			break
		}
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

// blockWriter packs entries into blocks and hands each finished block to
// emit with its entry count and the bytes of those entries: what the block
// takes beyond them, once framed, its first entry counts too. A block is
// closed when its entries reach segmentBlockBytes or when the next entry
// was first written by another flush.
type blockWriter struct {
	emit func(block []byte, entries, body int) error

	body  []byte // encoded entries of the open block
	count int
	seq   uint64 // flush sequence number of its entries
	start int64  // the last entry's window start
	width uint64 // and width
	block []byte
}

// add appends the batch values of (key, win), first written by flush seq,
// and returns the size of its entry. A failed emit of the block it closes
// leaves that block open and the batch out.
func (w *blockWriter) add(seq uint64, key string, win window.Window, values [][]byte) (int, error) {
	if w.count > 0 && (seq != w.seq || len(w.body) >= segmentBlockBytes) {
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	return w.put(seq, key, win, values), nil
}

// put appends an entry to the open block, opening one for seq if none is,
// and returns its encoded size; add decides where blocks close.
func (w *blockWriter) put(seq uint64, key string, win window.Window, values [][]byte) int {
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

// flush emits the open block, if any. A failed emit leaves the block
// open, so nothing is dropped silently.
func (w *blockWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	w.block = binio.PutUvarint(binio.PutUvarint(w.block[:0], w.seq), uint64(w.count))
	w.block = append(w.block, w.body...)
	if err := w.emit(w.block, w.count, len(w.body)); err != nil {
		return err
	}
	w.body, w.count = w.body[:0], 0
	return nil
}
