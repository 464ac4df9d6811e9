package aur

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// realSegmentBlocks runs a small store through evictions and a cleaning
// pass and returns one block written by each.
func realSegmentBlocks(f *testing.F) (flush, cleaning []byte) {
	s, err := Open(Options{
		Dir:              filepath.Join(f.TempDir(), "aur"),
		WriteBufferBytes: 1 << 10,
		ReadBatchRatio:   0,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Destroy()
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%d", i)), window.Window{Start: int64(i) * 7, End: int64(i)*7 + gap}
	}
	n := 0
	for ; s.SegmentStats().LiveSegments < 4; n++ {
		k, w := session(n)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			f.Fatal(err)
		}
	}
	s.ioMu.Lock()
	flush = segmentBlocks(f, s.segs.List()[0])[0]
	s.ioMu.Unlock()
	// Consume every other window, then keep appending: an eviction finds
	// the sealed segments half dead and cleans them.
	for i := 0; i < n; i += 2 {
		if _, err := s.Get(session(i)); err != nil {
			f.Fatal(err)
		}
	}
	for i := n; s.SegmentStats().Compactions == 0; i++ {
		if i == 4*n {
			f.Fatal("seed store never cleaned")
		}
		k, w := session(i)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			f.Fatal(err)
		}
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return flush, segmentBlocks(f, s.segs.Survivor())[0]
}

// FuzzDecodeSegmentBlock throws arbitrary bytes, seeded with blocks a
// running AUR store wrote, at the segment-block codec the store shares
// with the RMW log (logfile.DecodeSegmentBlock; the codec's own fuzz
// target is in internal/logfile). Segments are scanned on every prefetch
// miss, every cleaning pass and every restore, so the decoder is the gate
// between on-disk bytes and the values and locations the store serves: it
// must reject garbage with a typed *logfile.BlockError, without panicking
// or sizing an allocation from a corrupt count, and what it accepts is
// canonical — the writer re-encodes it byte for byte, so an AUR block is
// the same bytes through the shared codec as the store wrote.
func FuzzDecodeSegmentBlock(f *testing.F) {
	flush, cleaning := realSegmentBlocks(f)
	f.Add(flush)
	f.Add(cleaning)
	f.Add([]byte{})
	f.Add(flush[:len(flush)-2])                                                // truncated entry
	f.Add(append(bytes.Clone(flush), 0))                                       // a trailing byte
	f.Add(binio.PutUvarint(binio.PutUvarint(nil, 1), 1<<40))                   // a count larger than the payload
	f.Add([]byte{1, 0x81, 0x00, 1, 'k', 0, 0, 1, 1, 'v'})                      // a padded count
	f.Add([]byte{1, 1, 1, 'k', 0, 0, 0})                                       // an entry without values
	f.Add([]byte{1, 2, 1, 'k', 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Δstart MaxInt64, then one that wraps
		0xff, 0x01, 0, 1, 0, 1, 'k', 2, 1, 1, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		var again []byte
		w := logfile.BlockWriter{Bound: math.MaxInt, Emit: func(block []byte, _, _ int) error {
			again = bytes.Clone(block)
			return nil
		}}
		var entries, size int
		count, err := logfile.DecodeSegmentBlock(b, func(e *logfile.BlockEntry) error {
			if e.Size <= 0 || len(e.Values) == 0 {
				t.Fatalf("entry of %d bytes with %d values", e.Size, len(e.Values))
			}
			entries, size = entries+1, size+e.Size
			_, _, err := w.Add(e.Seq, string(e.Key), e.Window, e.Values)
			return err
		})
		if err != nil {
			if be := (*logfile.BlockError)(nil); !errors.As(err, &be) || !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("rejected with %v, not a *logfile.BlockError", err)
			}
			return
		}
		if count == 0 || count != entries || size != len(b) {
			t.Fatalf("accepted %d entries of %d bytes in a %d-byte block, decoded %d", count, size, len(b), entries)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("block re-encodes differently:\n%x\n%x", b, again)
		}
	})
}

// FuzzDecodeSegmentsSnapshot throws arbitrary bytes at the segments.snap
// decoder. Restore takes the segment table and every consumed mark from
// it before it looks at an index, so it must reject garbage without
// panicking or sizing an allocation from a corrupt count, return segments
// in ascending id order with states it knows, and anything it accepts must
// come back byte for byte through the production encoder: a snapshot has
// one encoding.
func FuzzDecodeSegmentsSnapshot(f *testing.F) {
	w := window.Window{Start: 7, End: 7 + gap}
	marks := map[string]int64{string(identBytes(id{"user-1", w})): 117, string(identBytes(id{"", w})): 0}
	real := encodeSegmentsSnapshot([]SegmentInfo{
		{ID: 0, State: logfile.SegmentSealed, Marks: marks},
		{ID: 4, State: logfile.SegmentSurvivor, Marks: marks},
		{ID: 9, State: logfile.SegmentHead},
	})
	f.Add(real)
	f.Add(encodeSegmentsSnapshot(nil))
	f.Add([]byte{})
	f.Add(real[:len(real)-3]) // a torn last record
	frames := func(payloads ...[]byte) (b []byte) {
		for _, p := range payloads {
			b = binio.AppendRecord(b, p)
		}
		return b
	}
	f.Add(real[:len(real)-len(frames([]byte{9, logfile.SegmentHead}))]) // one segment fewer than counted
	f.Add(frames(binio.PutUvarint(nil, 1<<40)))                         // a count larger than the file
	f.Add(frames([]byte{1}, []byte{3, 7}))                              // an unknown state
	f.Add(frames([]byte{2}, []byte{3, logfile.SegmentHead}, []byte{5, logfile.SegmentHead}))
	f.Add([]byte{0x51, 0x53, 0x7d, 0x52, 1, 0}) // the earlier pair layout's marker-less frame: crc32c | len | payload 0
	mark := func(p []byte, ident string, at uint64) []byte {
		return binio.PutUvarint(binio.PutBytes(p, []byte(ident)), at)
	}
	f.Add(frames([]byte{1}, mark(mark([]byte{0, logfile.SegmentSealed}, "b", 1), "a", 1))) // marks out of order
	f.Add(frames([]byte{1}, mark(mark([]byte{0, logfile.SegmentSealed}, "a", 1), "a", 2))) // an identity twice
	f.Add(frames([]byte{0x81, 0}))                                                         // an overlong count

	f.Fuzz(func(t *testing.T, b []byte) {
		infos, err := DecodeSegmentsSnapshot(b)
		if err != nil {
			return
		}
		for i, si := range infos {
			if si.State > logfile.SegmentSurvivor || i > 0 && si.ID <= infos[i-1].ID {
				t.Fatalf("segment %d: id %d after %d, state %d", i, si.ID, infos[max(i, 1)-1].ID, si.State)
			}
			for prefix, mark := range si.Marks {
				if mark < 0 {
					t.Fatalf("segment %d: mark %d for %x", si.ID, mark, prefix)
				}
			}
		}
		if again := encodeSegmentsSnapshot(infos); !bytes.Equal(again, b) {
			t.Fatalf("an accepted snapshot re-encodes to other bytes:\n%x\n%x", b, again)
		}
	})
}
