package logfile

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// seedBlocks returns blocks as the two stores write them: a flush of
// value batches (AUR) and a flush of one aggregate per entry (RMW), each
// with its windows in the writer's order.
func seedBlocks(tb testing.TB) (batches, aggregates []byte) {
	tb.Helper()
	one := func(seq uint64, n int, entry func(i int) (string, window.Window, [][]byte)) []byte {
		var out []byte
		w := BlockWriter{Bound: 1 << 20, Emit: func(block []byte, _, _ int) error {
			out = bytes.Clone(block)
			return nil
		}}
		for i := 0; i < n; i++ {
			key, win, vals := entry(i)
			if _, _, err := w.Add(seq, key, win, vals); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
		return out
	}
	batches = one(3, 4, func(i int) (string, window.Window, [][]byte) {
		vals := [][]byte{[]byte("value"), []byte(fmt.Sprintf("v-%d", i))}
		return fmt.Sprintf("user-%d", i), window.Window{Start: int64(i) * 7, End: int64(i)*7 + 100}, vals[:1+i%2]
	})
	aggregates = one(9, 6, func(i int) (string, window.Window, [][]byte) {
		return fmt.Sprintf("k%04d", 5-i), window.Window{Start: 70_000 + int64(i), End: 95_000 + int64(i)}, [][]byte{{byte(i)}}
	})
	return batches, aggregates
}

// FuzzDecodeSegmentBlock throws arbitrary bytes at the segment-block
// decoder. Segments are scanned on every AUR prefetch miss, every cleaning
// pass and every checkpoint, so the decoder is the gate between on-disk
// bytes and the values and locations the stores serve: it must reject
// garbage with a typed *BlockError, without panicking or sizing an
// allocation from a corrupt count, and what it accepts is canonical — the
// writer re-encodes it byte for byte.
func FuzzDecodeSegmentBlock(f *testing.F) {
	batches, aggregates := seedBlocks(f)
	f.Add(batches)
	f.Add(aggregates)
	f.Add([]byte{})
	f.Add(batches[:len(batches)-2])                                            // truncated entry
	f.Add(append(bytes.Clone(batches), 0))                                     // a trailing byte
	f.Add(binio.PutUvarint(binio.PutUvarint(nil, 1), 1<<40))                   // a count larger than the payload
	f.Add([]byte{1, 0x81, 0x00, 1, 'k', 0, 0, 1, 1, 'v'})                      // a padded count
	f.Add([]byte{1, 1, 1, 'k', 0, 0, 0})                                       // an entry without values
	f.Add([]byte{1, 2, 1, 'k', 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Δstart MaxInt64, then one that wraps
		0xff, 0x01, 0, 1, 0, 1, 'k', 2, 1, 1, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		var w BlockWriter
		var seq uint64
		var size int
		count, err := DecodeSegmentBlock(b, func(e *BlockEntry) error {
			// Sizes add up to the block: the first entry counts the header.
			if e.Size <= 0 || len(e.Values) == 0 || size+e.Size > len(b) || size > 0 && e.Off != size {
				t.Fatalf("entry at %d of %d bytes with %d values, after %d bytes", e.Off, e.Size, len(e.Values), size)
			}
			seq, size = e.Seq, size+e.Size
			w.put(e.Seq, string(e.Key), e.Window, e.Values)
			return nil
		})
		if err != nil {
			if be := (*BlockError)(nil); !errors.As(err, &be) || !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("rejected with %v, not a *BlockError", err)
			}
			return
		}
		if count == 0 || count != w.count || size != len(b) {
			t.Fatalf("accepted %d entries of %d bytes in a %d-byte block, re-encoded %d", count, size, len(b), w.count)
		}
		var again []byte
		w.Emit = func(block []byte, _, _ int) error { again = bytes.Clone(block); return nil }
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) || w.seq != seq {
			t.Fatalf("block re-encodes differently:\n%x\n%x", b, again)
		}
	})
}

// FuzzSegmentEntryAt throws arbitrary (block, offset) pairs at the point
// decoder an RMW miss runs on the one block it read. At every offset where
// a full decode yields an entry it must return that entry — key, values,
// offset and the entry's own bytes. Anywhere else it cannot know the
// offset is not an entry's without decoding from the block's start, which
// is what it is there to avoid: it returns a typed *BlockError, or the one
// canonical entry those bytes hold, inside the block. It never panics.
func FuzzSegmentEntryAt(f *testing.F) {
	batches, aggregates := seedBlocks(f)
	for _, b := range [][]byte{batches, aggregates} {
		DecodeSegmentBlock(b, func(e *BlockEntry) error {
			f.Add(b, e.Off)
			f.Add(b, e.Off+1) // inside the entry
			return nil
		})
		f.Add(b, 0)
		f.Add(b, len(b))
		f.Add(b[:len(b)-1], len(b)-8) // the last entry, truncated
	}
	f.Add([]byte{}, -1)
	f.Add([]byte{1, 1, 1, 'k', 0, 0, 0}, 2)       // an entry without values
	f.Add([]byte{1, 1, 1, 'k', 0, 0x80}, 2)       // a short varint
	f.Add([]byte{1, 1, 0x81, 0, 'k', 0, 0, 1}, 2) // a padded key length

	f.Fuzz(func(t *testing.T, b []byte, off int) {
		type full struct {
			key  string
			vals [][]byte
			size int
		}
		at := make(map[int]full)
		_, derr := DecodeSegmentBlock(b, func(e *BlockEntry) error {
			size := e.Size
			if len(at) == 0 {
				size -= e.Off // the first entry counts the block header
			}
			at[e.Off] = full{string(e.Key), slices.Clone(e.Values), size}
			return nil
		})
		check := func(off int) {
			var e BlockEntry
			err := SegmentEntryAt(b, off, &e)
			want, isEntry := at[off]
			switch {
			case err != nil && !errors.As(err, new(*BlockError)):
				t.Fatalf("offset %d: %v, not a *BlockError", off, err)
			case err != nil && derr == nil && isEntry:
				t.Fatalf("offset %d: %v, but a full decode yields %q there", off, err, want.key)
			case err != nil:
			case e.Off != off || e.Size <= 0 || off+e.Size > len(b) || e.Window != (window.Window{}) || e.Seq != 0:
				t.Fatalf("offset %d: entry at %d of %d bytes in a %d-byte block, window %v, seq %d", off, e.Off, e.Size, len(b), e.Window, e.Seq)
			case derr == nil && isEntry && (string(e.Key) != want.key || !slices.EqualFunc(e.Values, want.vals, bytes.Equal) || e.Size != want.size):
				t.Fatalf("offset %d: %q %q (%d bytes), full decode %q %q (%d bytes)", off, e.Key, e.Values, e.Size, want.key, want.vals, want.size)
			case len(e.Values) == 0:
				t.Fatalf("offset %d: an entry without values", off)
			}
		}
		check(off)
		if derr == nil {
			for off := range at {
				check(off)
			}
		}
	})
}
