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
