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
// nothing else. The body is the key count, the byte length of each of six
// columns, then the columns back to back:
//
//	shared  per key the length of the prefix it shares with the key
//	        before it (0 for the first)
//	sufLen  per key the length of the rest of the key
//	suffix  the rest of every key
//	count   per key the number of its values
//	valLen  per value its length
//	value   every value, key by key, each key's in arrival order
//
// The deflate stream is binio.DeflateBlocks': every column Huffman-coded
// in blocks of its own, the key count and column lengths with the first.
// A column of small numbers, a column of key digits and a column of
// prices each get their own code, and no match search is run: on
// Q7-shaped flushes that writes 9% fewer bytes than one flate.BestSpeed
// stream over the whole body, for about half its CPU.
//
// Keys ascend strictly. A key whose values fill more than one chunk
// opens the next one again. Tag 0 was the earlier row layout (per key its
// prefix, suffix, count and values, undeflated); no reader is kept for
// it, nor for the count-prefixed layout before it, whose records open
// with a tuple count.
const chunkTag = 0x01

// The columns of a chunk body, in the order they are written.
const (
	colShared = iota
	colSufLen
	colSuffix
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
type chunkEncoder struct {
	cols  [chunkColumns][]byte
	body  []byte
	parts [chunkColumns][]byte // the body cut at its columns
}

// encode appends one chunk holding entries, which must be sorted by key
// with each key's values in arrival order. It fails only for a body past
// binio.MaxInflated.
func (e *chunkEncoder) encode(dst []byte, entries []kvPair) ([]byte, error) {
	e.layout(entries)
	return binio.DeflateBlocks(binio.PutUvarint(append(dst, chunkTag), uint64(len(e.body))), e.parts[:]...)
}

// layout lays entries out as a chunk body in e.body, cut at its columns
// in e.parts.
func (e *chunkEncoder) layout(entries []kvPair) {
	shared, sufLen, suffix := e.cols[colShared][:0], e.cols[colSufLen][:0], e.cols[colSuffix][:0]
	count, valLen, value := e.cols[colCount][:0], e.cols[colValLen][:0], e.cols[colValue][:0]
	keys := 0
	var prev []byte
	for i, j := 0, 1; i < len(entries); i, j = j, j+1 {
		k := entries[i].k
		for j < len(entries) && bytes.Equal(entries[j].k, k) {
			j++
		}
		p := 0
		for p < len(prev) && p < len(k) && prev[p] == k[p] {
			p++
		}
		shared = binio.PutUvarint(shared, uint64(p))
		sufLen = binio.PutUvarint(sufLen, uint64(len(k)-p))
		suffix = append(suffix, k[p:]...)
		count = binio.PutUvarint(count, uint64(j-i))
		for _, e := range entries[i:j] {
			valLen = binio.PutUvarint(valLen, uint64(len(e.v)))
			value = append(value, e.v...)
		}
		keys, prev = keys+1, k
	}
	e.cols = [chunkColumns][]byte{shared, sufLen, suffix, count, valLen, value}
	body := binio.PutUvarint(e.body[:0], uint64(keys))
	for _, col := range e.cols {
		body = binio.PutUvarint(body, uint64(len(col)))
	}
	head := len(body)
	for _, col := range e.cols {
		body = append(body, col...)
	}
	e.body = body
	// The key count and column lengths share the first block with the
	// shared column: small numbers, all of them.
	end := head + len(e.cols[0])
	e.parts[0] = body[:end]
	for i, col := range e.cols[1:] {
		e.parts[i+1] = body[end : end+len(col)]
		end += len(col)
	}
}

// chunkCursor reads one column of a chunk body, latching the first
// reason it finds the column is not what the encoder writes.
type chunkCursor struct {
	b   []byte
	why *string
}

func (c *chunkCursor) fail(format string, args ...any) {
	if *c.why == "" {
		*c.why = fmt.Sprintf(format, args...)
	}
}

// uvarint reads a minimal uvarint, or 0 once the decode has failed.
func (c *chunkCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n > 1 && c.b[n-1] == 0 {
		c.fail("short or padded varint")
	}
	if *c.why != "" {
		return 0
	}
	c.b = c.b[n:]
	return v
}

// take reads the next n bytes of column col, or nil once the decode has
// failed.
func (c *chunkCursor) take(n uint64, col int) []byte {
	if n > uint64(len(c.b)) {
		c.fail("column %d ends %d bytes short", col, n-uint64(len(c.b)))
	}
	if *c.why != "" {
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

// DecodeChunk inflates a flush chunk and calls fn once per key, keys
// ascending, with the key's values in arrival order. key and vals are
// valid until fn returns; each value aliases the inflated body, which the
// decoder never reuses. It returns what the chunk held, or a *ChunkError
// for anything whose body is not what chunkEncoder writes: a tag other
// than chunkTag, a padded or overlong declared length, a stream that does
// not inflate to exactly that length or is followed by bytes, columns that
// overrun the body or hold bytes past its keys, keys not strictly
// ascending or not sharing exactly their common prefix with the one
// before, a key without values, padded varints. (The deflate stream
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
	body, err := binio.InflateAtMost(make([]byte, 0, n+1), chunk[1+k:], int(n))
	if err != nil {
		return ChunkInfo{}, &ChunkError{err.Error()}
	}
	if uint64(len(body)) != n {
		return ChunkInfo{}, &ChunkError{fmt.Sprintf("body inflates to %d bytes, declared %d", len(body), n)}
	}
	info, why := decodeBody(body, fn)
	if why != "" {
		return ChunkInfo{}, &ChunkError{why}
	}
	info.Decoded = len(body)
	return info, nil
}

// decodeBody hands fn the keys of an inflated chunk body, returning the
// reason it is not one encode writes, if any.
func decodeBody(body []byte, fn func(key []byte, vals [][]byte)) (ChunkInfo, string) {
	why := ""
	d := chunkCursor{body, &why}
	keys := d.uvarint()
	var cols [chunkColumns]chunkCursor
	var lens [chunkColumns]uint64
	for i := range lens {
		lens[i] = d.uvarint()
	}
	if why != "" {
		return ChunkInfo{}, why
	}
	for i, n := range lens {
		if n > uint64(len(d.b)) {
			return ChunkInfo{}, fmt.Sprintf("column %d of %d bytes overruns the body", i, n)
		}
		cols[i] = chunkCursor{d.b[:n:n], &why}
		d.b = d.b[n:]
	}
	switch {
	case len(d.b) != 0:
		return ChunkInfo{}, fmt.Sprintf("%d bytes past the columns", len(d.b))
	case keys == 0:
		return ChunkInfo{}, "no keys"
	case keys > uint64(len(cols[colShared].b)): // a key takes a byte of it at least
		return ChunkInfo{}, fmt.Sprintf("%d keys in a %d-byte shared column", keys, len(cols[colShared].b))
	}
	info := ChunkInfo{Keys: int(keys)}
	var key []byte
	var vals [][]byte
	for i := uint64(0); i < keys && why == ""; i++ {
		p := cols[colShared].uvarint()
		suffix := cols[colSuffix].take(cols[colSufLen].uvarint(), colSuffix)
		n := cols[colCount].uvarint()
		switch {
		case why != "":
		case p > uint64(len(key)):
			why = fmt.Sprintf("key %d shares %d bytes with a %d-byte key", i, p, len(key))
		case i > 0 && (len(suffix) == 0 || p < uint64(len(key)) && suffix[0] <= key[p]):
			why = fmt.Sprintf("key %d does not follow the previous key at its common prefix", i)
		case n == 0:
			why = fmt.Sprintf("key %d has no values", i)
		case n > uint64(len(cols[colValLen].b)): // a value takes a byte of it at least
			why = fmt.Sprintf("key %d has %d values, the value-length column %d bytes", i, n, len(cols[colValLen].b))
		default:
			key, vals = append(key[:p], suffix...), vals[:0]
			for j := uint64(0); j < n; j++ {
				vals = append(vals, cols[colValue].take(cols[colValLen].uvarint(), colValue))
			}
			if why == "" {
				fn(key, vals)
				info.Values += int(n)
			}
		}
	}
	for i := range cols {
		if why == "" && len(cols[i].b) != 0 {
			why = fmt.Sprintf("column %d holds %d bytes past the chunk's %d keys", i, len(cols[i].b), keys)
		}
	}
	return info, why
}
