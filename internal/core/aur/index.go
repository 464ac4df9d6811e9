package aur

import (
	"fmt"
	"math"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Index log format. A segment's index log is a sequence of CRC-framed
// *blocks*, one per flush (or per run a cleaning pass moved in), split at
// about indexBlockBytes of payload. A block locates a run of value batches
// that sit back to back in the segment's data log and were first written
// by one flush, so the first offset and that flush are stored once:
//
//	uvarint base     data-log offset of the first entry's batch
//	uvarint seq      sequence number of the flush that wrote the batches
//	uvarint count    number of entries, at least 1
//	count × entry:
//	    uvarint keyLen, key
//	    varint  window start
//	    uvarint window end − start
//	    uvarint length   on-disk bytes of the batch, frame included
//
// Entry i's batch starts at base plus the lengths of entries 0..i-1.
// Blocks are appended in data-log offset order, so an index log ascends by
// offset. It does not ascend by age: cleaning fills a survivor segment
// emptiest victim first, over several passes. The sequence number is what
// orders an identity's batches — across segments and within a survivor —
// and a load installs them by it, so Get returns values in append order
// however often they were moved.
//
// The bytes key · start · width of an entry the store wrote (the frame's
// CRC vouches for that) are the identity's canonical encoding,
// identBytes: the consumed set and a scan's selection are keyed by them,
// so a scan tests an entry without building an id.

// indexBlockBytes is the payload size at which an index block is closed.
// A block is the unit of checksumming and of scanner buffering: 32 KiB
// keeps the per-entry share of the frame and header under 0.01 B while a
// block still fits the scan buffer many times over.
const indexBlockBytes = 32 << 10

// appendIdent appends ident's canonical encoding to dst.
func appendIdent(dst []byte, ident id) []byte {
	dst = binio.PutBytes(dst, []byte(ident.key))
	dst = binio.PutVarint(dst, ident.w.Start)
	// The width is taken in wrapping arithmetic, so every (start, end)
	// pair round-trips, including ones whose difference overflows.
	return binio.PutUvarint(dst, uint64(ident.w.End-ident.w.Start))
}

// identBytes returns the canonical byte encoding of an identity, equal
// to the leading bytes of its index entries.
func identBytes(ident id) []byte { return appendIdent(nil, ident) }

// IndexEntry is one location entry of an index block: where in the
// segment's data log one flushed value batch of (Key, Window) sits.
type IndexEntry struct {
	Key    []byte
	Window window.Window
	Off    int64  // data-log offset of the batch's frame
	Len    int    // on-disk length of the batch, frame included
	Seq    uint64 // the flush that first wrote the batch
}

// indexEntry is an entry as a scan sees it: decoded, plus the bytes it
// was decoded from. Key and prefix alias the block.
type indexEntry struct {
	IndexEntry
	prefix []byte // key · start · width as encoded: the identity's identBytes
}

// blockIter walks the entries of one index block.
type blockIter struct {
	rest []byte
	off  int64  // data-log offset of the next entry
	seq  uint64 // the block's flush sequence number
	left uint64 // entries not yet returned
}

func badBlock(format string, a ...any) error {
	return fmt.Errorf("aur: index block: %s: %w", fmt.Sprintf(format, a...), binio.ErrCorrupt)
}

// openBlock parses a block's header.
func openBlock(b []byte) (blockIter, error) {
	base, n, err := binio.Uvarint(b)
	if err != nil {
		return blockIter{}, badBlock("base offset: %v", err)
	}
	if base > math.MaxInt64 {
		return blockIter{}, badBlock("base offset %d overflows", base)
	}
	b = b[n:]
	seq, n, err := binio.Uvarint(b)
	if err != nil {
		return blockIter{}, badBlock("flush sequence: %v", err)
	}
	b = b[n:]
	count, n, err := binio.Uvarint(b)
	if err != nil {
		return blockIter{}, badBlock("entry count: %v", err)
	}
	b = b[n:]
	// An entry is at least four bytes; comparing against the payload
	// length is enough to keep a corrupt count from sizing anything.
	if count == 0 || count > uint64(len(b)) {
		return blockIter{}, badBlock("%d entries in %d bytes", count, len(b))
	}
	return blockIter{rest: b, off: int64(base), seq: seq, left: count}, nil
}

// next decodes the next entry into e; the caller checks left first. This
// is the only place the entry layout is decoded.
func (it *blockIter) next(e *indexEntry) error {
	b := it.rest
	key, p, err := binio.Bytes(b)
	if err != nil {
		return badBlock("key: %v", err)
	}
	start, n, err := binio.Varint(b[p:])
	if err != nil {
		return badBlock("window start: %v", err)
	}
	p += n
	width, n, err := binio.Uvarint(b[p:])
	if err != nil {
		return badBlock("window width: %v", err)
	}
	p += n
	e.prefix, e.Key = b[:p], key
	e.Window = window.Window{Start: start, End: start + int64(width)}
	ln, n, err := binio.Uvarint(b[p:])
	if err != nil {
		return badBlock("batch length: %v", err)
	}
	p += n
	if ln > math.MaxInt32 || int64(ln) > math.MaxInt64-it.off {
		return badBlock("batch of %d bytes at offset %d overflows", ln, it.off)
	}
	e.Off, e.Len, e.Seq = it.off, int(ln), it.seq
	it.off += int64(ln)
	it.rest = b[p:]
	it.left--
	if it.left == 0 && len(it.rest) != 0 {
		return badBlock("%d bytes after the last entry", len(it.rest))
	}
	return nil
}

// DecodeIndexBlock decodes the payload of one index-log record, offsets
// reconstructed. The keys alias b.
func DecodeIndexBlock(b []byte) ([]IndexEntry, error) {
	it, err := openBlock(b)
	if err != nil {
		return nil, err
	}
	out := make([]IndexEntry, 0, min(it.left, uint64(len(b)/4)))
	var e indexEntry
	for it.left > 0 {
		if err := it.next(&e); err != nil {
			return nil, err
		}
		out = append(out, e.IndexEntry)
	}
	return out, nil
}

// indexWriter packs entries, added in data-log offset order, into blocks
// and hands each finished block to emit with its entry count. A block is
// closed when it reaches indexBlockBytes, when the next entry does not
// start where the previous one ended (bytes between them belong to no
// live batch), or when it was written by another flush.
type indexWriter struct {
	emit func(block []byte, entries int) error

	entries []byte // encoded entries of the open block
	count   int
	base    int64  // data offset of the open block's first entry
	next    int64  // data offset one past its last entry
	seq     uint64 // flush sequence number of its entries
	block   []byte
}

// add appends the entry (prefix, sp) of a batch flush seq first wrote;
// prefix is the identity's identBytes.
func (w *indexWriter) add(prefix []byte, sp span, seq uint64) error {
	if w.count > 0 && (sp.off != w.next || seq != w.seq || len(w.entries) >= indexBlockBytes) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if w.count == 0 {
		w.base, w.seq = sp.off, seq
	}
	w.entries = append(w.entries, prefix...)
	w.entries = binio.PutUvarint(w.entries, uint64(sp.n))
	w.count++
	w.next = sp.off + int64(sp.n)
	return nil
}

// flush emits the open block, if any. A failed emit leaves the block
// open, so nothing is dropped silently.
func (w *indexWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	w.block = binio.PutUvarint(w.block[:0], uint64(w.base))
	w.block = binio.PutUvarint(w.block, w.seq)
	w.block = binio.PutUvarint(w.block, uint64(w.count))
	w.block = append(w.block, w.entries...)
	if err := w.emit(w.block, w.count); err != nil {
		return err
	}
	w.entries, w.count = w.entries[:0], 0
	return nil
}
