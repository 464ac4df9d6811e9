package aur

import (
	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Segment log format. A segment is one log, aur-NNNNNN.log, of blocks in
// the segment block format both segmented logs share (logfile.BlockWriter,
// logfile.DecodeSegmentBlock): each entry a value batch of one (key,
// window), the block's seq the flush that first wrote its batches — a
// cleaning pass moves batches of one flush at a time.
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

// segmentBlockBytes is the entry payload at which a block is closed. It was
// picked by the bytes a miss reads back: on the session benchmark (seed 1)
// blocks closed at 1, 4 and 16 KiB read 254.2, 252.2 and 251.8 MB and
// wrote 8.98, 8.91 and 8.90 B an event, and 64 KiB measured as 16 — an
// eviction's batches rarely fill 16 KiB, so most flushes are one block.
// A scan that finds what it wants stops decoding mid-block either way.
const segmentBlockBytes = 16 << 10

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
