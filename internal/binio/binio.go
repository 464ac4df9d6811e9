// Package binio provides the binary encoding primitives shared by every
// persistent store in this repository: little-endian integers, unsigned
// varints, length-prefixed byte frames, CRC-checked records, deflated
// payloads, and the one column codec (ColumnWriter, ReadColumns) that AAR
// flush chunks and sink-ledger blocks are written and read with.
//
// All stores (FlowKV's AAR/AUR/RMW stores, the LSM baseline, and the
// hash-log baseline) serialize through this package so that on-disk
// corruption handling and framing behave identically across systems.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt reports a record whose checksum or framing failed to verify.
var ErrCorrupt = errors.New("binio: corrupt record")

// ErrShortBuffer reports a decode attempt against insufficient bytes.
var ErrShortBuffer = errors.New("binio: short buffer")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) checksum of b, the same
// polynomial RocksDB and many storage systems use for record integrity.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumUpdate extends a running CRC-32C with p, so large files can be
// checksummed in streaming chunks. ChecksumUpdate(0, b) == Checksum(b).
func ChecksumUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// PutUint32 appends v to dst in little-endian order.
func PutUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// PutUint64 appends v to dst in little-endian order.
func PutUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// Uint32 decodes a little-endian uint32 from the front of b.
func Uint32(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, ErrShortBuffer
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Uint64 decodes a little-endian uint64 from the front of b.
func Uint64(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(b), nil
}

// PutUvarint appends v to dst as an unsigned varint.
func PutUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint decodes an unsigned varint from the front of b, returning the
// value and the number of bytes consumed.
func Uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, ErrShortBuffer
	}
	return v, n, nil
}

// PutVarint appends v to dst as a zig-zag signed varint.
func PutVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// Varint decodes a signed varint from the front of b, returning the value
// and the number of bytes consumed.
func Varint(b []byte) (int64, int, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, 0, ErrShortBuffer
	}
	return v, n, nil
}

// PutBytes appends a length-prefixed copy of p to dst.
func PutBytes(dst, p []byte) []byte {
	dst = PutUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// Bytes decodes a length-prefixed byte slice from the front of b. The
// returned slice aliases b; callers that retain it must copy.
func Bytes(b []byte) ([]byte, int, error) {
	n, sz, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(b)-sz) < n {
		return nil, 0, ErrShortBuffer
	}
	return b[sz : sz+int(n)], sz + int(n), nil
}

// SplitBytes splits b, a run of PutBytes elements end to end, into
// copies of the elements.
func SplitBytes(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		e, n, err := Bytes(b)
		if err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), e...))
		b = b[n:]
	}
	return out, nil
}

// PutString appends a length-prefixed copy of s to dst.
func PutString(dst []byte, s string) []byte {
	dst = PutUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String decodes a length-prefixed string from the front of b.
func String(b []byte) (string, int, error) {
	p, n, err := Bytes(b)
	if err != nil {
		return "", 0, err
	}
	return string(p), n, nil
}

// Record framing. Every record in every file has one frame:
//
//	marker(0xF7) | crc32c(length ‖ payload) (uint32 LE) | length(uvarint) | payload
//
// Every frame starts with a nonzero marker byte and the CRC covers the
// length bytes as well as the payload, so neither a zeroed page nor a
// flipped length byte survives verification: a page of zeroes is never
// read as a run of valid empty records. The frame lets a reader detect a
// torn tail after a crash and stop at the first bad record, the standard
// recovery discipline for append-only logs.

// FrameMarker is the first byte of every frame. It is deliberately nonzero:
// a zeroed page can never start a valid record.
const FrameMarker = 0xF7

// FrameError describes a frame that failed verification, carrying the
// expected and observed checksums so operators can tell rot from a torn
// write. It unwraps to ErrCorrupt.
type FrameError struct {
	// Reason is a short description ("bad marker", "crc mismatch", ...).
	Reason string
	// Want and Got are the recorded and recomputed CRC32C values when the
	// failure is a checksum mismatch (both zero otherwise).
	Want, Got uint32
}

func (e *FrameError) Error() string {
	if e.Want != e.Got {
		return fmt.Sprintf("binio: corrupt record: %s (want crc %08x, got %08x)", e.Reason, e.Want, e.Got)
	}
	return fmt.Sprintf("binio: corrupt record: %s", e.Reason)
}

func (e *FrameError) Unwrap() error { return ErrCorrupt }

// AppendRecord appends a framed, checksummed record holding payload to dst.
func AppendRecord(dst, payload []byte) []byte {
	dst = append(dst, FrameMarker)
	var lenb [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lenb[:], uint64(len(payload)))
	crc := ChecksumUpdate(Checksum(lenb[:ln]), payload)
	dst = PutUint32(dst, crc)
	dst = append(dst, lenb[:ln]...)
	return append(dst, payload...)
}

// FrameHeadroom is the most bytes a frame header takes: marker, CRC and
// the longest length varint. A writer that reserves this many bytes at the
// front of its buffer can build the payload behind them and frame it in
// place with SealFrame.
const FrameHeadroom = 5 + binary.MaxVarintLen64

// SealFrame frames buf[FrameHeadroom:] as one record in place: the header
// goes into the reserved bytes right before the payload, and the frame
// returned — a subslice of buf — is the same bytes AppendRecord would
// produce, without copying the payload.
func SealFrame(buf []byte) []byte {
	var lenb [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lenb[:], uint64(len(buf)-FrameHeadroom))
	start := FrameHeadroom - 5 - ln
	buf[start] = FrameMarker
	copy(buf[start+5:], lenb[:ln])
	binary.LittleEndian.PutUint32(buf[start+1:], Checksum(buf[start+5:]))
	return buf[start:]
}

// RecordOverhead returns the framing overhead in bytes for a payload of
// length n.
func RecordOverhead(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return 5 + binary.PutUvarint(tmp[:], uint64(n))
}

// ReadRecord decodes one framed record from the front of b. It returns the
// payload (aliasing b) and the total number of bytes consumed. Corruption
// yields a *FrameError (errors.Is ErrCorrupt) carrying the expected-vs-got
// checksums; a truncated frame yields ErrShortBuffer so scanners can
// distinguish a torn tail from rot.
func ReadRecord(b []byte) ([]byte, int, error) {
	if len(b) < 1 {
		return nil, 0, ErrShortBuffer
	}
	if b[0] != FrameMarker {
		return nil, 0, &FrameError{Reason: fmt.Sprintf("bad frame marker %#02x", b[0])}
	}
	crc, err := Uint32(b[1:])
	if err != nil {
		return nil, 0, err
	}
	n, sz, err := Uvarint(b[5:])
	if err != nil {
		return nil, 0, err
	}
	head := 5 + sz
	if uint64(len(b)-head) < n {
		return nil, 0, ErrShortBuffer
	}
	payload := b[head : head+int(n)]
	// The length bytes and payload are contiguous, so the CRC over
	// (len || payload) is a single pass — two Checksum calls cost ~25%
	// extra on small records from per-call setup.
	got := Checksum(b[5 : head+int(n)])
	if got != crc {
		return nil, 0, &FrameError{Reason: "crc mismatch", Want: crc, Got: got}
	}
	return payload, head + int(n), nil
}

// RecordWriter streams framed records to an io.Writer, tracking the byte
// offset of each record so callers can build indexes while writing.
type RecordWriter struct {
	w   io.Writer
	off int64
	buf []byte
}

// NewRecordWriter returns a RecordWriter positioned at offset off of w.
func NewRecordWriter(w io.Writer, off int64) *RecordWriter {
	return &RecordWriter{w: w, off: off}
}

// Offset returns the file offset at which the next record will begin.
func (rw *RecordWriter) Offset() int64 { return rw.off }

// Write appends one framed record and returns the offset at which it was
// written and its total on-disk length.
func (rw *RecordWriter) Write(payload []byte) (off int64, n int, err error) {
	rw.buf = AppendRecord(rw.buf[:0], payload)
	off = rw.off
	if _, err = rw.w.Write(rw.buf); err != nil {
		return 0, 0, fmt.Errorf("binio: write record: %w", err)
	}
	rw.off += int64(len(rw.buf))
	return off, len(rw.buf), nil
}

// Frame returns the frame the last Write wrote, marker to payload; it is
// valid until the next Write.
func (rw *RecordWriter) Frame() []byte { return rw.buf }

// RecordScanner iterates framed records from an io.Reader. It buffers
// internally and stops cleanly at EOF or at the first corrupt/torn record.
type RecordScanner struct {
	r      io.Reader
	buf    []byte
	start  int
	end    int
	off    int64
	err    error
	record []byte
}

// NewRecordScanner returns a scanner reading framed records from r,
// treating the first byte of r as file offset base.
func NewRecordScanner(r io.Reader, base int64) *RecordScanner {
	return &RecordScanner{r: r, off: base}
}

// Buffer has the scanner read into buf (all of its capacity) instead of
// the 64 KiB buffer it would allocate at the first Scan, so a caller that
// scans repeatedly can supply one it reuses, sized to the reads it wants
// issued. It must be called before the first Scan; a buffer without
// capacity is ignored, and the scanner still grows a private buffer for a
// record that does not fit.
func (s *RecordScanner) Buffer(buf []byte) *RecordScanner {
	if cap(buf) > 0 {
		s.buf = buf[:cap(buf)]
	}
	return s
}

// Scan advances to the next record, reporting false at EOF or error.
func (s *RecordScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.buf == nil {
		s.buf = make([]byte, 64*1024)
	}
	for {
		payload, n, err := ReadRecord(s.buf[s.start:s.end])
		if err == nil {
			s.record = payload
			s.start += n
			s.off += int64(n)
			return true
		}
		if errors.Is(err, ErrCorrupt) {
			// A frame can never start with a zero byte, so an all-zero
			// remainder is the classic crash artifact — file size updated,
			// data blocks never flushed — and recovery treats it as a torn
			// tail. Any nonzero garbage (here or later in the stream) is
			// rot, not a tear, and stays a typed corruption.
			if s.restIsZero() {
				s.err = io.ErrUnexpectedEOF
				return false
			}
			s.err = err
			return false
		}
		// Short buffer: compact and refill.
		if s.start > 0 {
			copy(s.buf, s.buf[s.start:s.end])
			s.end -= s.start
			s.start = 0
		}
		if s.end == len(s.buf) {
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, rerr := s.r.Read(s.buf[s.end:])
		s.end += n
		if n == 0 {
			if rerr == io.EOF || rerr == nil {
				if s.end > s.start {
					// Torn tail after crash: ignore trailing garbage.
					s.err = io.ErrUnexpectedEOF
				}
				return false
			}
			s.err = rerr
			return false
		}
	}
}

// restIsZero reports whether every unconsumed byte — buffered and still
// unread from the underlying reader — is zero. Only called on the corrupt
// path, so draining the reader is fine: the scan is over either way.
func (s *RecordScanner) restIsZero() bool {
	for _, b := range s.buf[s.start:s.end] {
		if b != 0 {
			return false
		}
	}
	chunk := make([]byte, 32*1024)
	for {
		n, err := s.r.Read(chunk)
		for _, b := range chunk[:n] {
			if b != 0 {
				return false
			}
		}
		if err != nil || n == 0 {
			return true
		}
	}
}

// Record returns the payload of the record most recently scanned. The
// slice is only valid until the next call to Scan.
func (s *RecordScanner) Record() []byte { return s.record }

// Offset returns the file offset one byte past the most recent record.
func (s *RecordScanner) Offset() int64 { return s.off }

// Err returns the first error encountered, excluding clean EOF. A torn
// final record surfaces as io.ErrUnexpectedEOF, which log recovery treats
// as a clean stop.
func (s *RecordScanner) Err() error {
	if s.err == io.ErrUnexpectedEOF {
		return nil
	}
	return s.err
}

// Truncated reports whether the scanner stopped at a torn trailing record.
func (s *RecordScanner) Truncated() bool { return s.err == io.ErrUnexpectedEOF }
