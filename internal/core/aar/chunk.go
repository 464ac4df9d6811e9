package aar

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"flowkv/internal/binio"
)

// A flush chunk is one window-log record holding part of a window's
// bucket, grouped by key, deflated whole:
//
//	chunkTag | uvarint(len(body)) | deflate(body)
//
// Nothing ever reads inside a chunk: a window's log is read once, front
// to back, when the window fires, so a chunk costs one inflate and
// nothing else. The body is a binio column payload, one row a key, in six
// columns:
//
//	shared  per key the length of the prefix it shares with the key
//	        before it (0 for the first)
//	sufLen  per key the length of the rest of the key
//	suffix  the rest of every key
//	count   per key the number of its values
//	valLen  per value its length
//	value   every value, key by key, each key's in arrival order
//
// The body is coded by binio.DeflateBlocks, every column Huffman-coded in
// blocks of its own: a column of small numbers, a column of key digits
// and a column of prices each get their own code, and no match search is
// run. On Q7-shaped flushes that writes 9% fewer bytes than one
// flate.BestSpeed stream over the whole body, for about half its CPU.
//
// Keys ascend strictly, and every key has a value. A key whose values
// fill more than one chunk opens the next one again. Tag 0 was the
// earlier row layout (per key its prefix, suffix, count and values,
// undeflated); no reader is kept for it, nor for the count-prefixed
// layout before it, whose records open with a tuple count.
const chunkTag = 0x01

// The columns of a chunk body, in the order they are written.
const (
	colShared = iota // the key's three columns
	_
	_
	colCount
	colValLen
	colValue
	chunkColumns
)

// maxInflateRatio is the most bytes a deflate stream can inflate to per
// byte of stream (a run of 258-byte matches, 2 bits each, rounded up). A
// chunk declaring more than this for its stream cannot be what it says,
// so the decoder never allocates for more.
const maxInflateRatio = 1032

// ChunkError reports a window-log record that is not a canonical flush
// chunk, a record of an earlier layout among them.
type ChunkError struct{ Reason string }

func (e *ChunkError) Error() string { return "aar: bad flush chunk: " + e.Reason }

// ChunkInfo sizes one decoded flush chunk.
type ChunkInfo struct {
	Keys, Values int
	// Decoded is the length of the chunk's body, the bytes its deflate
	// stream inflates to.
	Decoded int
}

// chunkEncoder builds flush chunks in buffers it reuses.
type chunkEncoder struct{ w binio.ColumnWriter }

// encode appends one chunk holding entries, which must be sorted by key
// with each key's values in arrival order. It fails only for a body past
// binio.MaxInflated.
func (e *chunkEncoder) encode(dst []byte, entries []kvPair) ([]byte, error) {
	w := &e.w
	w.Reset(chunkColumns)
	keys := 0
	for i, j := 0, 1; i < len(entries); i, j = j, j+1 {
		k := entries[i].k
		for j < len(entries) && bytes.Equal(entries[j].k, k) {
			j++
		}
		w.Key(colShared, k)
		w.Uvarint(colCount, uint64(j-i))
		for _, e := range entries[i:j] {
			w.Uvarint(colValLen, uint64(len(e.v)))
			w.Bytes(colValue, e.v)
		}
		keys++
	}
	return w.Encode(binio.PutUvarint(append(dst, chunkTag), uint64(w.Size(keys))), keys, binio.DeflateBlocks)
}

// DecodeChunk inflates a flush chunk and calls fn once per key, keys
// ascending, with the key's values in arrival order. key and vals are
// valid until fn returns; each value aliases the inflated body, which the
// decoder never reuses. It returns what the chunk held, or a *ChunkError
// for anything whose body is not what chunkEncoder writes: a tag other
// than chunkTag, a padded or overlong declared length, a stream that does
// not inflate to exactly that length, a body the column codec rejects,
// keys not strictly ascending, a key without values. (The deflate stream
// itself is compress/flate's to choose, and may differ between Go
// releases; what it inflates to never does.)
func DecodeChunk(chunk []byte, fn func(key []byte, vals [][]byte)) (ChunkInfo, error) {
	if len(chunk) == 0 || chunk[0] != chunkTag {
		return ChunkInfo{}, &ChunkError{"no chunk tag (a record of an earlier layout?)"}
	}
	n, k := binary.Uvarint(chunk[1:])
	switch {
	case k <= 0 || k > 1 && chunk[k] == 0:
		return ChunkInfo{}, &ChunkError{"short or padded body length"}
	case n > binio.MaxInflated || n > maxInflateRatio*uint64(len(chunk)):
		return ChunkInfo{}, &ChunkError{fmt.Sprintf("a %d-byte chunk declares a %d-byte body", len(chunk), n)}
	}
	r, err := binio.ReadColumns(make([]byte, 0, n+1), chunk[1+k:], chunkColumns, int(n))
	switch {
	case err != nil:
		return ChunkInfo{}, &ChunkError{err.Error()}
	case uint64(r.Size()) != n:
		return ChunkInfo{}, &ChunkError{fmt.Sprintf("body inflates to %d bytes, declared %d", r.Size(), n)}
	case r.Rows() == 0:
		return ChunkInfo{}, &ChunkError{"no keys"}
	}
	info := ChunkInfo{Keys: int(r.Rows()), Decoded: r.Size()}
	var vals [][]byte
	for i := uint64(0); i < r.Rows() && r.Err() == nil; i++ {
		key, cmp := r.Key(colShared)
		n := r.Uvarint(colCount)
		vals = vals[:0]
		for j := uint64(0); j < n && r.Err() == nil; j++ {
			vals = append(vals, r.Bytes(colValue, r.Uvarint(colValLen)))
		}
		switch {
		case r.Err() != nil:
		case i > 0 && cmp <= 0:
			return ChunkInfo{}, &ChunkError{fmt.Sprintf("key %d does not follow the key before it", i)}
		case n == 0:
			return ChunkInfo{}, &ChunkError{fmt.Sprintf("key %d has no values", i)}
		default:
			fn(key, vals)
			info.Values += int(n)
		}
	}
	if err := r.Finish(); err != nil {
		return ChunkInfo{}, &ChunkError{err.Error()}
	}
	return info, nil
}
