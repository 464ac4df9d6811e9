// Package binio provides the binary encoding primitives shared by every
// persistent store in this repository: little-endian integers, unsigned
// varints, length-prefixed byte frames, and CRC-checked records.
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

// Record framing. Two frame versions exist:
//
//	v0 (legacy):  crc32c(uint32 LE) | length(uvarint) | payload
//	v1:           marker(0xF7)      | crc32c(uint32 LE) | length(uvarint) | payload
//
// In v0 the CRC covers the payload alone. That leaves a silent-corruption
// hole: a page of zeroes decodes as an endless stream of valid empty
// records (crc=0, len=0, Checksum(nil)=0), so a zeroed block in the middle
// of a log is served as data instead of detected. v1 closes it twice over:
// every frame starts with a nonzero marker byte, and the CRC covers the
// length bytes as well as the payload, so neither a zeroed page nor a
// flipped length byte can survive verification. Writers always emit v1;
// v0 remains readable for files written before the version bump. A file is
// homogeneous — its version is decided at creation (or sniffed at open)
// and every record in it uses that frame.
//
// Both frames allow a reader to detect torn tails after a crash and stop
// at the first bad record, the standard recovery discipline for
// append-only logs.

// FrameVersion selects the record frame layout of a file.
type FrameVersion uint8

const (
	// FrameV0 is the legacy frame: CRC over the payload only, no marker.
	FrameV0 FrameVersion = 0
	// FrameV1 is the current frame: a leading marker byte plus a CRC over
	// the length bytes and the payload.
	FrameV1 FrameVersion = 1
)

// FrameMarker is the first byte of every v1 frame. It is deliberately
// nonzero (a zeroed page can never start a valid v1 record) and an
// unlikely first byte for a v0 frame (it would have to be the low byte of
// the first record's CRC).
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

// AppendRecord appends a legacy (v0) framed record holding payload to dst.
// It remains in use for self-describing metadata blobs (manifests,
// SEGMENTS files) whose encodings carry their own magic; log files use
// AppendRecordV with the file's frame version.
func AppendRecord(dst, payload []byte) []byte {
	dst = PutUint32(dst, Checksum(payload))
	dst = PutUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendRecordV appends a framed, checksummed record in the given frame
// version.
func AppendRecordV(dst, payload []byte, v FrameVersion) []byte {
	if v == FrameV0 {
		return AppendRecord(dst, payload)
	}
	dst = append(dst, FrameMarker)
	var lenb [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lenb[:], uint64(len(payload)))
	crc := ChecksumUpdate(Checksum(lenb[:ln]), payload)
	dst = PutUint32(dst, crc)
	dst = append(dst, lenb[:ln]...)
	return append(dst, payload...)
}

// FrameHeadroom is the most bytes a v1 frame header takes: marker, CRC
// and the longest length varint. A writer that reserves this many bytes
// at the front of its buffer can build the payload behind them and frame
// it in place with SealFrame.
const FrameHeadroom = 5 + binary.MaxVarintLen64

// SealFrame frames buf[FrameHeadroom:] as one v1 record in place: the
// header goes into the reserved bytes right before the payload, and the
// frame returned — a subslice of buf — is the same bytes AppendRecordV
// would produce, without copying the payload.
func SealFrame(buf []byte) []byte {
	var lenb [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lenb[:], uint64(len(buf)-FrameHeadroom))
	start := FrameHeadroom - 5 - ln
	buf[start] = FrameMarker
	copy(buf[start+5:], lenb[:ln])
	binary.LittleEndian.PutUint32(buf[start+1:], Checksum(buf[start+5:]))
	return buf[start:]
}

// RecordOverhead returns the legacy (v0) framing overhead in bytes for a
// payload of length n.
func RecordOverhead(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return 4 + binary.PutUvarint(tmp[:], uint64(n))
}

// RecordOverheadV returns the framing overhead in bytes for a payload of
// length n in the given frame version.
func RecordOverheadV(n int, v FrameVersion) int {
	if v == FrameV0 {
		return RecordOverhead(n)
	}
	return 1 + RecordOverhead(n)
}

// ReadRecord decodes one legacy (v0) framed record from the front of b. It
// returns the payload (aliasing b) and the total number of bytes consumed.
// A checksum mismatch yields ErrCorrupt; a truncated frame yields
// ErrShortBuffer.
func ReadRecord(b []byte) ([]byte, int, error) {
	crc, err := Uint32(b)
	if err != nil {
		return nil, 0, err
	}
	n, sz, err := Uvarint(b[4:])
	if err != nil {
		return nil, 0, err
	}
	head := 4 + sz
	if uint64(len(b)-head) < n {
		return nil, 0, ErrShortBuffer
	}
	payload := b[head : head+int(n)]
	if Checksum(payload) != crc {
		return nil, 0, ErrCorrupt
	}
	return payload, head + int(n), nil
}

// ReadRecordV decodes one framed record in the given frame version from
// the front of b. Corruption yields a *FrameError (errors.Is ErrCorrupt)
// carrying the expected-vs-got checksums; a truncated frame yields
// ErrShortBuffer so scanners can distinguish a torn tail from rot.
func ReadRecordV(b []byte, v FrameVersion) ([]byte, int, error) {
	if v == FrameV0 {
		return ReadRecord(b)
	}
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

// SniffFrameVersion guesses the frame version of a file from its first
// bytes. An empty prefix (new or empty file) reports v1, the version
// writers emit; a leading FrameMarker reports v1; anything else is a
// legacy v0 file. The guess can be wrong for a v0 file whose first CRC
// byte happens to equal the marker (≈1/256 of legacy files); callers that
// recover real files (logfile open) fall back to a v0 scan when the v1
// read yields nothing.
func SniffFrameVersion(prefix []byte) FrameVersion {
	if len(prefix) == 0 || prefix[0] == FrameMarker {
		return FrameV1
	}
	return FrameV0
}

// RecordWriter streams framed records to an io.Writer, tracking the byte
// offset of each record so callers can build indexes while writing.
type RecordWriter struct {
	w   io.Writer
	off int64
	ver FrameVersion
	buf []byte
}

// NewRecordWriter returns a legacy (v0) RecordWriter positioned at offset
// off of w.
func NewRecordWriter(w io.Writer, off int64) *RecordWriter {
	return NewRecordWriterV(w, off, FrameV0)
}

// NewRecordWriterV returns a RecordWriter emitting frames of version v,
// positioned at offset off of w.
func NewRecordWriterV(w io.Writer, off int64, v FrameVersion) *RecordWriter {
	return &RecordWriter{w: w, off: off, ver: v}
}

// Offset returns the file offset at which the next record will begin.
func (rw *RecordWriter) Offset() int64 { return rw.off }

// Write appends one framed record and returns the offset at which it was
// written and its total on-disk length.
func (rw *RecordWriter) Write(payload []byte) (off int64, n int, err error) {
	rw.buf = AppendRecordV(rw.buf[:0], payload, rw.ver)
	off = rw.off
	if _, err = rw.w.Write(rw.buf); err != nil {
		return 0, 0, fmt.Errorf("binio: write record: %w", err)
	}
	rw.off += int64(len(rw.buf))
	return off, len(rw.buf), nil
}

// WriteRaw appends p, which must hold whole frames of the writer's
// version, verbatim (no re-framing), keeping the offset in step. Used to
// move already-framed records between logs.
func (rw *RecordWriter) WriteRaw(p []byte) error {
	if _, err := rw.w.Write(p); err != nil {
		return fmt.Errorf("binio: write raw: %w", err)
	}
	rw.off += int64(len(p))
	return nil
}

// RecordScanner iterates framed records from an io.Reader. It buffers
// internally and stops cleanly at EOF or at the first corrupt/torn record.
type RecordScanner struct {
	r      io.Reader
	buf    []byte
	start  int
	end    int
	off    int64
	ver    FrameVersion
	sniff  bool
	err    error
	record []byte
}

// NewRecordScanner returns a scanner reading legacy (v0) framed records
// from r, treating the first byte of r as file offset base.
func NewRecordScanner(r io.Reader, base int64) *RecordScanner {
	return NewRecordScannerV(r, base, FrameV0)
}

// NewRecordScannerV returns a scanner reading frames of version v from r,
// treating the first byte of r as file offset base.
func NewRecordScannerV(r io.Reader, base int64, v FrameVersion) *RecordScanner {
	return &RecordScanner{r: r, off: base, ver: v}
}

// NewRecordScannerSniff returns a scanner that decides the frame version
// from the first byte of the stream (SniffFrameVersion). base must be the
// start of the file for the sniff to be meaningful.
func NewRecordScannerSniff(r io.Reader, base int64) *RecordScanner {
	return &RecordScanner{r: r, off: base, sniff: true}
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

// Version returns the scanner's frame version. For a sniffing scanner the
// value is meaningful only after the first Scan call.
func (s *RecordScanner) Version() FrameVersion { return s.ver }

// Scan advances to the next record, reporting false at EOF or error.
func (s *RecordScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.buf == nil {
		s.buf = make([]byte, 64*1024)
	}
	for {
		if s.sniff && s.end > s.start {
			s.ver = SniffFrameVersion(s.buf[s.start:s.end])
			s.sniff = false
		}
		payload, n, err := ReadRecordV(s.buf[s.start:s.end], s.ver)
		if err == nil {
			s.record = payload
			s.start += n
			s.off += int64(n)
			return true
		}
		if errors.Is(err, ErrCorrupt) {
			// A v1 frame can never start with a zero byte, so an all-zero
			// remainder is the classic crash artifact — file size updated,
			// data blocks never flushed — and recovery treats it as a torn
			// tail. Any nonzero garbage (here or later in the stream) is
			// rot, not a tear, and stays a typed corruption.
			if s.ver == FrameV1 && s.restIsZero() {
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
