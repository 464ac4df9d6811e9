package binio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// The column codec. A payload of rows written once and read whole — an
// AAR flush chunk, a sink-ledger block — is laid out in columns, so that
// each column holds values that look alike: the row count, the byte
// length of each column, then the columns back to back,
//
//	uvarint(rows) | uvarint(len(column)) per column | column 0 | column 1 | …
//
// deflated by the coder the caller names, DeflateBlocks or Deflate, with
// the row count and column lengths in column 0's block and every other
// column in blocks of its own. A column holds uvarints or raw bytes, as
// many a row as its caller writes, but column 0 takes at least one byte a
// row. A key is prefix-coded across three consecutive columns:
//
//	shared  the length of the prefix it shares with the key before it
//	        (0 for the first)
//	sufLen  the length of the rest of the key
//	suffix  the rest of the key
//
// ReadColumns accepts only what a ColumnWriter writes: no column overruns
// the payload or keeps bytes past the rows read from it, no byte follows
// the columns, no varint is padded, and a key shares exactly the longest
// prefix it has in common with the key before it. What a caller puts in
// the rows — their order, their counts — is the caller's to check.

// ColumnWriter lays out one payload of columns at a time, in buffers it
// reuses across Reset.
type ColumnWriter struct {
	// Each column is the first lens[i] bytes of cols[i]: a write stores a
	// length, not a slice, so it runs no GC write barrier.
	cols  [][]byte
	lens  []int
	prev  []byte   // the key Key wrote last
	head  []byte   // the row count, the column lengths and column 0
	parts [][]byte // the blocks of the deflate stream
}

// Reset empties the writer for a payload of n ≥ 1 columns.
func (w *ColumnWriter) Reset(n int) {
	w.cols = slices.Grow(w.cols[:0], n)[:n]
	w.lens = append(w.lens[:0], make([]int, n)...)
	w.prev = nil
}

// room returns what follows column col in its buffer, n bytes at least.
func (w *ColumnWriter) room(col, n int) []byte {
	c, l := w.cols[col], w.lens[col]
	if len(c)-l < n {
		c = slices.Grow(c[:l], n)
		c = c[:cap(c)]
		w.cols[col] = c
	}
	return c[l:]
}

// Uvarint appends v to column col.
func (w *ColumnWriter) Uvarint(col int, v uint64) {
	w.lens[col] += binary.PutUvarint(w.room(col, binary.MaxVarintLen64), v)
}

// Bytes appends p to column col as it is: its length is the caller's to
// write.
func (w *ColumnWriter) Bytes(col int, p []byte) { w.lens[col] += copy(w.room(col, len(p)), p) }

// Key writes k prefix-coded into columns col, col+1 and col+2. k must not
// change until the next Key or Reset.
func (w *ColumnWriter) Key(col int, k []byte) {
	prev := w.prev
	p := 0
	for p < len(prev) && p < len(k) && prev[p] == k[p] {
		p++
	}
	w.Uvarint(col, uint64(p))
	w.Uvarint(col+1, uint64(len(k)-p))
	w.Bytes(col+2, k[p:])
	w.prev = k
}

// column returns column i as written.
func (w *ColumnWriter) column(i int) []byte { return w.cols[i][:w.lens[i]] }

// Size returns the length of the payload holding rows rows and the
// columns written since Reset: the bytes Encode's stream inflates to.
func (w *ColumnWriter) Size(rows int) int {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], uint64(rows))
	for _, l := range w.lens {
		n += binary.PutUvarint(b[:], uint64(l)) + l
	}
	return n
}

// Encode appends to dst the deflate stream of the payload holding rows
// rows and the columns written since Reset, coded by deflate —
// DeflateBlocks or Deflate — one part a column. It fails only for a
// payload longer than MaxInflated.
func (w *ColumnWriter) Encode(dst []byte, rows int, deflate func(dst []byte, parts ...[]byte) ([]byte, error)) ([]byte, error) {
	h := PutUvarint(w.head[:0], uint64(rows))
	for _, l := range w.lens {
		h = PutUvarint(h, uint64(l))
	}
	w.head = append(h, w.column(0)...)
	w.parts = append(w.parts[:0], w.head)
	for i := 1; i < len(w.cols); i++ {
		w.parts = append(w.parts, w.column(i))
	}
	return deflate(dst, w.parts...)
}

// ColumnReader reads the columns of one payload, latching the first way
// in which it is not what a ColumnWriter writes: from then on every read
// returns zero values and Err the reason, a *FrameError.
type ColumnReader struct {
	// Column i's unread bytes are cols[i][pos[i]:]: a read stores an
	// offset, not a slice, so it runs no GC write barrier.
	cols [][]byte
	pos  []int
	key  []byte
	rows uint64
	size int
	err  error
}

// ReadColumns inflates src, a stream of at most limit bytes, into a
// payload of n columns appended to dst, which values and keys a reader
// hands out alias (the reader never reuses it). A stream that does not
// inflate, or a payload whose header or columns are not laid out as
// above — a padded or missing row count or column length, a column that
// overruns the payload, bytes past the last column, more rows than
// column 0 has bytes — is a *FrameError.
func ReadColumns(dst, src []byte, n, limit int) (*ColumnReader, error) {
	body, err := InflateAtMost(dst, src, limit)
	if err != nil {
		return nil, err
	}
	b := body[len(dst):]
	r := &ColumnReader{cols: make([][]byte, n+1), pos: make([]int, n+1), size: len(b)}
	r.cols[n] = b // the header, read as a column of its own
	r.rows = r.Uvarint(n)
	lens := make([]uint64, n)
	for i := range lens {
		lens[i] = r.Uvarint(n)
	}
	if r.err != nil {
		return nil, &FrameError{Reason: "short or padded varint in the column header"}
	}
	b, r.cols, r.pos = b[r.pos[n]:], r.cols[:n], r.pos[:n]
	for i, l := range lens {
		if l > uint64(len(b)) {
			return nil, &FrameError{Reason: fmt.Sprintf("column %d of %d bytes overruns the payload", i, l)}
		}
		r.cols[i], b = b[:l:l], b[l:]
	}
	switch {
	case len(b) != 0:
		return nil, &FrameError{Reason: fmt.Sprintf("%d bytes past the columns", len(b))}
	case r.rows > uint64(len(r.cols[0])):
		return nil, &FrameError{Reason: fmt.Sprintf("%d rows in a %d-byte column 0", r.rows, len(r.cols[0]))}
	}
	return r, nil
}

// Rows returns the payload's row count.
func (r *ColumnReader) Rows() uint64 { return r.rows }

// Size returns the length of the payload the stream inflated to.
func (r *ColumnReader) Size() int { return r.size }

// Err returns the latched error, if any.
func (r *ColumnReader) Err() error { return r.err }

func (r *ColumnReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &FrameError{Reason: fmt.Sprintf(format, args...)}
	}
}

// Uvarint reads the next uvarint of column col, which must be minimal.
func (r *ColumnReader) Uvarint(col int) uint64 {
	c := r.cols[col][r.pos[col]:]
	v, n := binary.Uvarint(c)
	if n <= 0 || n > 1 && c[n-1] == 0 {
		r.fail("short or padded varint in column %d", col)
	}
	if r.err != nil {
		return 0
	}
	r.pos[col] += n
	return v
}

// Bytes reads the next n bytes of column col.
func (r *ColumnReader) Bytes(col int, n uint64) []byte {
	c := r.cols[col][r.pos[col]:]
	if n > uint64(len(c)) {
		r.fail("column %d ends %d bytes short", col, n-uint64(len(c)))
	}
	if r.err != nil {
		return nil
	}
	r.pos[col] += int(n)
	return c[:n:n]
}

// Key reads the key prefix-coded in columns col, col+1 and col+2, valid
// until the next Key, and how it compares with the key before it (the
// empty key, for the first), as bytes.Compare does.
func (r *ColumnReader) Key(col int) ([]byte, int) {
	p := r.Uvarint(col)
	suffix := r.Bytes(col+2, r.Uvarint(col+1))
	prev := r.key
	if r.err == nil && p > uint64(len(prev)) {
		r.fail("a key shares %d bytes with a %d-byte key", p, len(prev))
	}
	if r.err == nil && len(suffix) > 0 && p < uint64(len(prev)) && suffix[0] == prev[p] {
		r.fail("a key shares more than the %d bytes it says with the key before it", p)
	}
	if r.err != nil {
		return nil, 0
	}
	cmp := bytes.Compare(suffix, prev[p:])
	r.key = append(prev[:p], suffix...)
	return r.key, cmp
}

// Finish returns the latched error, or else a *FrameError if a column
// holds bytes past the rows read.
func (r *ColumnReader) Finish() error {
	for i, c := range r.cols {
		if left := len(c) - r.pos[i]; left != 0 {
			r.fail("column %d holds %d bytes past the payload's %d rows", i, left, r.rows)
		}
	}
	return r.err
}
