package aar

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"flowkv/internal/binio"
)

// A flush chunk is one window-log record holding part of a window's
// bucket, grouped by key:
//
//	chunkTag | uvarint(keys) | per key: uvarint(shared) | bytes(suffix) | uvarint(values) | values × bytes(value)
//
// Keys ascend strictly, each written as the length of the prefix it
// shares with the key before it and the rest of the key; its values
// follow in arrival order. A key whose values fill more than one chunk
// opens the next one again. The tag is 0 because a record of the earlier
// count-prefixed layout opens with a minimal uvarint count of at least 1,
// whose first byte is never 0.
const chunkTag = 0x00

// ChunkError reports a window-log record that is not a canonical flush
// chunk, a record of the earlier count-prefixed layout among them.
type ChunkError struct{ Reason string }

func (e *ChunkError) Error() string { return "aar: bad flush chunk: " + e.Reason }

// encodeChunk appends one chunk holding entries, which must be sorted by
// key with each key's values in arrival order.
func encodeChunk(dst []byte, entries []kvPair) []byte {
	keys := 0
	for i := range entries {
		if i == 0 || !bytes.Equal(entries[i].k, entries[i-1].k) {
			keys++
		}
	}
	dst = binio.PutUvarint(append(dst, chunkTag), uint64(keys))
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
		dst = binio.PutUvarint(binio.PutBytes(binio.PutUvarint(dst, uint64(p)), k[p:]), uint64(j-i))
		for _, e := range entries[i:j] {
			dst = binio.PutBytes(dst, e.v)
		}
		prev = k
	}
	return dst
}

// DecodeChunk calls fn once per key of a flush chunk, keys ascending, with
// the key's values in arrival order; key and vals are valid until fn
// returns, each value aliases chunk. It returns the key count, or a
// *ChunkError for anything but what encodeChunk writes: keys strictly
// ascending, each sharing exactly its common prefix with the one before,
// nonzero counts, minimal varints and no trailing bytes.
func DecodeChunk(chunk []byte, fn func(key []byte, vals [][]byte)) (int, error) {
	if len(chunk) == 0 || chunk[0] != chunkTag {
		return 0, &ChunkError{"no chunk tag (a count-prefixed record of the earlier layout?)"}
	}
	b, why := chunk[1:], ""
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if why == "" && (n <= 0 || n > 1 && b[n-1] == 0) {
			why = "short or padded varint"
		}
		if why != "" {
			return 0
		}
		b = b[n:]
		return v
	}
	count := func(min int) uint64 { // of elements at least min bytes long
		if n := uvarint(); n <= uint64(len(b)/min) {
			return n
		} else if why == "" {
			why = fmt.Sprintf("count %d exceeds the %d bytes left", n, len(b))
		}
		return 0
	}
	str := func() []byte {
		n := count(1)
		p := b[:n:n]
		b = b[n:]
		return p
	}
	keys := count(4) // shared, suffix length, value count, one value length
	if keys == 0 && why == "" {
		why = "no keys"
	}
	var key []byte
	var vals [][]byte
	for i := uint64(0); i < keys && why == ""; i++ {
		p, suffix, n := uvarint(), str(), count(1)
		switch {
		case why != "":
		case p > uint64(len(key)):
			why = fmt.Sprintf("key %d shares %d bytes with a %d-byte key", i, p, len(key))
		case i > 0 && (len(suffix) == 0 || p < uint64(len(key)) && suffix[0] <= key[p]):
			why = fmt.Sprintf("key %d does not follow the previous key at its common prefix", i)
		case n == 0:
			why = fmt.Sprintf("key %d has no values", i)
		default:
			key, vals = append(key[:p], suffix...), vals[:0]
			for j := uint64(0); j < n; j++ {
				vals = append(vals, str())
			}
			if why == "" {
				fn(key, vals)
			}
		}
	}
	if len(b) != 0 && why == "" {
		why = fmt.Sprintf("%d trailing bytes", len(b))
	}
	if why != "" {
		return 0, &ChunkError{why}
	}
	return int(keys), nil
}
