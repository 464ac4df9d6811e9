package binio

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// A test row is a key (columns 0–2) and one length-prefixed value (3, 4).
const (
	testValLen = 3
	testValue  = 4
	testCols   = 5
)

// readRows decodes a test payload's rows as "key=value", with the order
// Key reports for each key.
func readRows(z []byte) ([]string, []int, error) {
	r, err := ReadColumns(nil, z, testCols, MaxInflated)
	if err != nil {
		return nil, nil, err
	}
	var rows []string
	var order []int
	for i := uint64(0); i < r.Rows() && r.Err() == nil; i++ {
		k, cmp := r.Key(0)
		v := r.Bytes(testValue, r.Uvarint(testValLen))
		if r.Err() == nil {
			rows, order = append(rows, fmt.Sprintf("%s=%s", k, v)), append(order, cmp)
		}
	}
	return rows, order, r.Finish()
}

// payloadOf lays out a payload, well-formed or not: the row count, the
// column lengths and the columns, each column given as its bytes.
func payloadOf(rows uint64, cols ...string) []byte {
	b := PutUvarint(nil, rows)
	for _, c := range cols {
		b = PutUvarint(b, uint64(len(c)))
	}
	for _, c := range cols {
		b = append(b, c...)
	}
	return b
}

// TestColumnsRoundTrip: rows written through a ColumnWriter — by either
// coder, after other payloads — read back as written, each key's order
// against the one before it reported as bytes.Compare would, and Size is
// what the stream inflates to.
func TestColumnsRoundTrip(t *testing.T) {
	keys := []string{"", "a", "ab", "ab", "abc", "b", "ba", "a", ""}
	var w ColumnWriter
	for _, deflate := range []func([]byte, ...[]byte) ([]byte, error){DeflateBlocks, Deflate} {
		w.Reset(2) // a payload before, of another width
		w.Uvarint(0, 7)
		if _, err := w.Encode(nil, 1, deflate); err != nil {
			t.Fatal(err)
		}
		w.Reset(testCols)
		var want []string
		wantOrder := []int{0}
		for i, k := range keys {
			v := bytes.Repeat([]byte{'v'}, i)
			w.Key(0, []byte(k))
			w.Uvarint(testValLen, uint64(len(v)))
			w.Bytes(testValue, v)
			want = append(want, fmt.Sprintf("%s=%s", k, v))
			if i > 0 {
				wantOrder = append(wantOrder, bytes.Compare([]byte(k), []byte(keys[i-1])))
			}
		}
		z, err := w.Encode([]byte("head"), len(keys), deflate)
		if err != nil || !bytes.HasPrefix(z, []byte("head")) {
			t.Fatalf("encode: %v, or dst not appended to", err)
		}
		rows, order, err := readRows(z[4:])
		if err != nil || !slices.Equal(rows, want) || !slices.Equal(order, wantOrder) {
			t.Fatalf("read %q %v, %v; want %q %v", rows, order, err, want, wantOrder)
		}
		if p, _ := Inflate(nil, z[4:]); len(p) != w.Size(len(keys)) {
			t.Fatalf("payload of %d bytes, Size says %d", len(p), w.Size(len(keys)))
		}
	}
}

// TestColumnsRejectNonCanonical: a payload the writer never writes fails
// ReadColumns or a later read with a *FrameError, whatever the rows hold.
// Each case breaks one rule of the codec; the rules of what a caller puts
// in the rows are its own tests' (aar's TestDecodeChunkRejectsNonCanonical,
// spe's TestLedgerBlockRejectsNonCanonical).
func TestColumnsRejectNonCanonical(t *testing.T) {
	// Keys "ab" and "ac", values "1" and "2": shared | sufLen | suffix |
	// valLen | value.
	good := payloadOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "12")
	if rows, _, err := readRows(mustBlocks(t, good)); err != nil || !slices.Equal(rows, []string{"ab=1", "ac=2"}) {
		t.Fatalf("the well-formed payload reads as %q, %v", rows, err)
	}
	for name, p := range map[string][]byte{
		"empty":                       {},
		"header ends early":           good[:3],
		"padded row count":            append([]byte{0x82, 0x00}, good[1:]...),
		"padded column length":        append([]byte{0x02, 0x82, 0x00}, good[2:]...),
		"column overruns the payload": good[:len(good)-1],
		"bytes past the columns":      append(slices.Clone(good), 0),
		"rows past column 0":          payloadOf(3, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "12"),
		"column bytes past the rows":  payloadOf(1, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "12"),
		"value bytes past the rows":   payloadOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x01", "123"),
		"padded varint in a column":   payloadOf(2, "\x00\x01", "\x82\x00\x01", "abc", "\x01\x01", "12"),
		"suffix column ends short":    payloadOf(2, "\x00\x01", "\x02\x02", "abc", "\x01\x01", "12"),
		"value column ends short":     payloadOf(2, "\x00\x01", "\x02\x01", "abc", "\x01\x02", "12"),
		"first key shares a prefix":   payloadOf(2, "\x01\x01", "\x02\x01", "abc", "\x01\x01", "12"),
		"prefix longer than the key":  payloadOf(2, "\x00\x03", "\x02\x01", "abc", "\x01\x01", "12"),
		"prefix not maximal":          payloadOf(2, "\x00\x00", "\x02\x02", "abac", "\x01\x01", "12"),
	} {
		rows, _, err := readRows(mustBlocks(t, p))
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s: %x read as %q, %v; want a *FrameError", name, p, rows, err)
		}
	}
}

func mustBlocks(t testing.TB, p []byte) []byte {
	t.Helper()
	z, err := DeflateBlocks(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return z
}
