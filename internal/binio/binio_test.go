package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, math.MaxUint32, math.MaxUint64} {
		b := PutUint64(nil, v)
		got, err := Uint64(b)
		if err != nil {
			t.Fatalf("Uint64(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("Uint64 round trip: got %d want %d", got, v)
		}
	}
	b := PutUint32(nil, 0xdeadbeef)
	got, err := Uint32(b)
	if err != nil || got != 0xdeadbeef {
		t.Errorf("Uint32 round trip: got %x err %v", got, err)
	}
}

func TestUintShortBuffer(t *testing.T) {
	if _, err := Uint32([]byte{1, 2}); err != ErrShortBuffer {
		t.Errorf("Uint32 short: got %v want ErrShortBuffer", err)
	}
	if _, err := Uint64([]byte{1, 2, 3}); err != ErrShortBuffer {
		t.Errorf("Uint64 short: got %v want ErrShortBuffer", err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := PutVarint(nil, v)
		got, n, err := Varint(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v uint64) bool {
		b := PutUvarint(nil, v)
		got, n, err := Uvarint(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(p []byte, s string) bool {
		b := PutBytes(nil, p)
		b = PutString(b, s)
		gp, n, err := Bytes(b)
		if err != nil || !bytes.Equal(gp, p) {
			return false
		}
		gs, _, err := String(b[n:])
		return err == nil && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesShort(t *testing.T) {
	b := PutUvarint(nil, 100) // claims 100 bytes, provides none
	if _, _, err := Bytes(b); err != ErrShortBuffer {
		t.Errorf("Bytes short: got %v want ErrShortBuffer", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte("xyz"), 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendRecord(buf, p)
	}
	for _, want := range payloads {
		got, n, err := ReadRecord(buf)
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record mismatch: got %q want %q", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("trailing bytes after all records: %d", len(buf))
	}
}

func TestRecordOverheadMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1 << 20} {
		p := make([]byte, n)
		got := len(AppendRecord(nil, p)) - n
		if got != RecordOverhead(n) {
			t.Errorf("RecordOverhead(%d) = %d, actual framing %d", n, RecordOverhead(n), got)
		}
	}
}

// TestSealFrameMatchesAppend: a frame sealed in place is byte for byte
// the frame AppendRecord builds, at every length-varint width.
func TestSealFrameMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		p := bytes.Repeat([]byte{0xa5}, n)
		buf := append(make([]byte, FrameHeadroom), p...)
		if got, want := SealFrame(buf), AppendRecord(nil, p); !bytes.Equal(got, want) {
			t.Fatalf("payload %d bytes: SealFrame differs from AppendRecord", n)
		}
	}
}

func TestRecordCorruption(t *testing.T) {
	buf := AppendRecord(nil, []byte("hello world"))
	buf[len(buf)-1] ^= 0xff
	var fe *FrameError
	if _, _, err := ReadRecord(buf); !errors.As(err, &fe) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted record: got %v want a *FrameError", err)
	}
}

func TestRecordTruncation(t *testing.T) {
	buf := AppendRecord(nil, []byte("hello world"))
	if _, _, err := ReadRecord(buf[:len(buf)-3]); err != ErrShortBuffer {
		t.Errorf("truncated record: got %v want ErrShortBuffer", err)
	}
}

func TestRecordWriterScanner(t *testing.T) {
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	var offs []int64
	var recs [][]byte
	for i := 0; i < 100; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i*37%512)
		off, n, err := rw.Write(p)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		if n != len(p)+RecordOverhead(len(p)) {
			t.Fatalf("record %d: reported len %d", i, n)
		}
		offs = append(offs, off)
		recs = append(recs, p)
	}
	if rw.Offset() != int64(file.Len()) {
		t.Fatalf("writer offset %d, file len %d", rw.Offset(), file.Len())
	}

	sc := NewRecordScanner(bytes.NewReader(file.Bytes()), 0)
	for i, want := range recs {
		if !sc.Scan() {
			t.Fatalf("Scan stopped at record %d: %v", i, sc.Err())
		}
		if !bytes.Equal(sc.Record(), want) {
			t.Errorf("record %d mismatch", i)
		}
		wantEnd := offs[i] + int64(len(want)+RecordOverhead(len(want)))
		if sc.Offset() != wantEnd {
			t.Errorf("record %d: scanner offset %d want %d", i, sc.Offset(), wantEnd)
		}
	}
	if sc.Scan() {
		t.Error("Scan returned true past final record")
	}
	if sc.Err() != nil {
		t.Errorf("scanner err: %v", sc.Err())
	}
}

func TestRecordScannerTornTail(t *testing.T) {
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	if _, _, err := rw.Write([]byte("complete")); err != nil {
		t.Fatal(err)
	}
	full := file.Len()
	if _, _, err := rw.Write(bytes.Repeat([]byte("torn"), 100)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write of the second record.
	torn := file.Bytes()[:full+7]

	sc := NewRecordScanner(bytes.NewReader(torn), 0)
	if !sc.Scan() {
		t.Fatalf("first record should survive: %v", sc.Err())
	}
	if string(sc.Record()) != "complete" {
		t.Errorf("got %q", sc.Record())
	}
	if sc.Scan() {
		t.Error("torn record should not scan")
	}
	if sc.Err() != nil {
		t.Errorf("torn tail should be a clean stop, got %v", sc.Err())
	}
	if !sc.Truncated() {
		t.Error("Truncated() should report the torn tail")
	}
}

func TestRecordScannerCorruptMiddle(t *testing.T) {
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	for i := 0; i < 3; i++ {
		if _, _, err := rw.Write([]byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	b := file.Bytes()
	b[len(b)/2] ^= 0xff // corrupt the middle record's payload or frame

	sc := NewRecordScanner(bytes.NewReader(b), 0)
	var n int
	for sc.Scan() {
		n++
	}
	if sc.Err() == nil && n == 3 {
		t.Error("corruption went undetected")
	}
}

func TestRecordScannerLargeRecords(t *testing.T) {
	// Records larger than the scanner's initial buffer force growth.
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	big := bytes.Repeat([]byte("B"), 300*1024)
	if _, _, err := rw.Write(big); err != nil {
		t.Fatal(err)
	}
	sc := NewRecordScanner(bytes.NewReader(file.Bytes()), 0)
	if !sc.Scan() {
		t.Fatalf("Scan: %v", sc.Err())
	}
	if !bytes.Equal(sc.Record(), big) {
		t.Error("large record mismatch")
	}
}

// TestRecordScannerCallerBuffer scans through a caller-supplied buffer
// far smaller than the stream (records straddle every refill), checks a
// record larger than it is still returned whole by a private grown
// buffer, and that an empty buffer is ignored rather than looping.
func TestRecordScannerCallerBuffer(t *testing.T) {
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	var recs [][]byte
	for i := 0; i < 200; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*37%90)
		if i == 120 {
			p = bytes.Repeat([]byte("B"), 1000)
		}
		if _, _, err := rw.Write(p); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, p)
	}
	for _, buf := range [][]byte{make([]byte, 256), make([]byte, 0, 256), nil} {
		sc := NewRecordScanner(bytes.NewReader(file.Bytes()), 0).Buffer(buf)
		for i, want := range recs {
			if !sc.Scan() || !bytes.Equal(sc.Record(), want) {
				t.Fatalf("cap %d: record %d mismatch (err %v)", cap(buf), i, sc.Err())
			}
		}
		if sc.Scan() || sc.Err() != nil {
			t.Fatalf("cap %d: scan did not end cleanly: %v", cap(buf), sc.Err())
		}
	}
}

func TestRecordScannerEmptyInput(t *testing.T) {
	sc := NewRecordScanner(bytes.NewReader(nil), 0)
	if sc.Scan() {
		t.Error("Scan on empty input returned true")
	}
	if sc.Err() != nil {
		t.Errorf("empty input err: %v", sc.Err())
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestRecordScannerReadError(t *testing.T) {
	sc := NewRecordScanner(errReader{io.ErrClosedPipe}, 0)
	if sc.Scan() {
		t.Error("Scan with failing reader returned true")
	}
	if sc.Err() != io.ErrClosedPipe {
		t.Errorf("err = %v, want ErrClosedPipe", sc.Err())
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	payload := bytes.Repeat([]byte("v"), 84) // NEXMark bid-sized value
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], payload)
	}
}

func BenchmarkScanRecords(b *testing.B) {
	var file bytes.Buffer
	rw := NewRecordWriter(&file, 0)
	payload := bytes.Repeat([]byte("v"), 84)
	for i := 0; i < 10000; i++ {
		if _, _, err := rw.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	data := file.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewRecordScanner(bytes.NewReader(data), 0)
		for sc.Scan() {
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
