package binio

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode throws arbitrary bytes at every decoder in the package. The
// properties checked are the ones the stores rely on when reading logs
// written by a crashed or corrupted process:
//
//   - no decoder panics, whatever the input;
//   - a successful decode consumes a positive number of bytes within the
//     input (so scanning loops always make progress);
//   - a successfully decoded value re-encodes to something that decodes
//     back to the same value (decode∘encode = id on the value domain);
//   - the record scanner terminates with monotonically increasing offsets.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("hello")))
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")), bytes.Repeat([]byte("b"), 300)))
	f.Add(PutBytes(PutUvarint(PutUint32(nil, 7), 1<<40), []byte("payload")))
	f.Add(PutVarint(PutString(nil, "key"), -12345))
	// A valid record with its checksum flipped.
	bad := AppendRecord(nil, []byte("flip"))
	bad[1] ^= 0xff
	f.Add(bad)
	// A record claiming a huge payload length.
	f.Add(PutUvarint(PutUint32([]byte{FrameMarker}, 0), 1<<62))

	f.Fuzz(func(t *testing.T, b []byte) {
		if payload, n, err := ReadRecord(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("ReadRecord consumed %d of %d bytes", n, len(b))
			}
			re := AppendRecord(nil, payload)
			p2, n2, err2 := ReadRecord(re)
			if err2 != nil || n2 != len(re) || !bytes.Equal(p2, payload) {
				t.Fatalf("record round trip: payload %x -> %x, n=%d/%d, err=%v",
					payload, p2, n2, len(re), err2)
			}
		}
		if v, n, err := Uvarint(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("Uvarint consumed %d of %d bytes", n, len(b))
			}
			if v2, _, err2 := Uvarint(PutUvarint(nil, v)); err2 != nil || v2 != v {
				t.Fatalf("uvarint round trip: %d -> %d, err=%v", v, v2, err2)
			}
		}
		if v, n, err := Varint(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("Varint consumed %d of %d bytes", n, len(b))
			}
			if v2, _, err2 := Varint(PutVarint(nil, v)); err2 != nil || v2 != v {
				t.Fatalf("varint round trip: %d -> %d, err=%v", v, v2, err2)
			}
		}
		if p, n, err := Bytes(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("Bytes consumed %d of %d bytes", n, len(b))
			}
			if p2, _, err2 := Bytes(PutBytes(nil, p)); err2 != nil || !bytes.Equal(p2, p) {
				t.Fatalf("bytes round trip: %x -> %x, err=%v", p, p2, err2)
			}
		}
		if s, n, err := String(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("String consumed %d of %d bytes", n, len(b))
			}
			if s2, _, err2 := String(PutString(nil, s)); err2 != nil || s2 != s {
				t.Fatalf("string round trip: %q -> %q, err=%v", s, s2, err2)
			}
		}
		if v, err := Uint32(b); err == nil {
			if v2, err2 := Uint32(PutUint32(nil, v)); err2 != nil || v2 != v {
				t.Fatalf("uint32 round trip: %d -> %d, err=%v", v, v2, err2)
			}
		}
		if v, err := Uint64(b); err == nil {
			if v2, err2 := Uint64(PutUint64(nil, v)); err2 != nil || v2 != v {
				t.Fatalf("uint64 round trip: %d -> %d, err=%v", v, v2, err2)
			}
		}

		sc := NewRecordScanner(bytes.NewReader(b), 0)
		prev := int64(0)
		for sc.Scan() {
			if sc.Offset() <= prev {
				t.Fatalf("scanner offset stuck at %d", sc.Offset())
			}
			prev = sc.Offset()
		}
		if sc.Err() != nil && !errors.Is(sc.Err(), ErrCorrupt) {
			t.Fatalf("scanner error on in-memory input: %v", sc.Err())
		}
	})
}

// FuzzDecodeRecordFrame drives the checksummed frame decoder and the
// record scanner with arbitrary bytes. The properties are the ones the
// scrubber and recovery paths depend on:
//
//   - ReadRecord never panics and never accepts a frame whose CRC does
//     not cover its bytes (a successful decode must re-encode to a frame
//     that decodes to the same payload);
//   - every failure is either ErrShortBuffer (feed more bytes) or a
//     *FrameError matching errors.Is(err, ErrCorrupt) — nothing else;
//   - the scanner terminates with increasing offsets and only stops on
//     EOF, a torn tail, or typed corruption.
func FuzzDecodeRecordFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("hello")))
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")), bytes.Repeat([]byte("b"), 300)))
	// Marker present but CRC flipped.
	bad := AppendRecord(nil, []byte("flip"))
	bad[1] ^= 0xff
	f.Add(bad)
	// Payload bit-flip after a clean first frame.
	two := AppendRecord(AppendRecord(nil, []byte("ok")), []byte("rot"))
	two[len(two)-1] ^= 0x01
	f.Add(two)
	// Truncated frame (torn tail) and zero tail after a clean frame.
	whole := AppendRecord(nil, []byte("torn"))
	f.Add(whole[:len(whole)-2])
	f.Add(append(AppendRecord(nil, []byte("zeros")), make([]byte, 37)...))
	// A frame without its marker byte.
	f.Add(AppendRecord(nil, []byte("no marker"))[1:])
	// Huge claimed length.
	f.Add(append([]byte{byte(FrameMarker), 1, 2, 3, 4}, PutUvarint(nil, 1<<62)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := ReadRecord(b)
		var fe *FrameError
		switch {
		case err == nil:
			if n <= 0 || n > len(b) {
				t.Fatalf("ReadRecord consumed %d of %d bytes", n, len(b))
			}
			re := AppendRecord(nil, payload)
			p2, n2, err2 := ReadRecord(re)
			if err2 != nil || n2 != len(re) || !bytes.Equal(p2, payload) {
				t.Fatalf("frame round trip: payload %x -> %x, n=%d/%d, err=%v",
					payload, p2, n2, len(re), err2)
			}
		case errors.Is(err, ErrShortBuffer) || errors.As(err, &fe):
		default:
			t.Fatalf("ReadRecord: untyped error %v", err)
		}

		sc := NewRecordScanner(bytes.NewReader(b), 0)
		prev := int64(0)
		for sc.Scan() {
			if sc.Offset() <= prev {
				t.Fatalf("scanner offset stuck at %d", sc.Offset())
			}
			prev = sc.Offset()
		}
		if sc.Err() != nil && !errors.Is(sc.Err(), ErrCorrupt) {
			t.Fatalf("scanner error on in-memory input: %v", sc.Err())
		}
	})
}
