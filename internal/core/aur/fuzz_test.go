package aur

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// indexBlocks returns the payloads of the store's index-log records.
func indexBlocks(t testing.TB, s *Store) [][]byte {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	sc, err := s.indexLog.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for sc.Scan() {
		blocks = append(blocks, bytes.Clone(sc.Record()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// realIndexBlocks runs a small store through a flush and a compaction
// and returns one index block written by each.
func realIndexBlocks(f *testing.F) (flush, compaction []byte) {
	s, err := Open(Options{
		Dir:              filepath.Join(f.TempDir(), "aur"),
		WriteBufferBytes: 1 << 20,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Destroy()
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%d", i)), window.Window{Start: int64(i) * 7, End: int64(i)*7 + gap}
	}
	for i := 0; i < 40; i++ {
		k, w := session(i)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	flush = indexBlocks(f, s)[0]
	// Consume most windows so a later miss finds MSA exceeded.
	for i := 0; i < 30; i++ {
		if _, err := s.Get(session(i)); err != nil {
			f.Fatal(err)
		}
	}
	if s.Compactions() == 0 {
		f.Fatal("seed store never compacted")
	}
	return flush, indexBlocks(f, s)[0]
}

// encodeIndexBlocks packs entries through the production writer.
func encodeIndexBlocks(t testing.TB, entries []IndexEntry) [][]byte {
	var blocks [][]byte
	iw := indexWriter{emit: func(block []byte, _ int) error {
		blocks = append(blocks, bytes.Clone(block))
		return nil
	}}
	for _, e := range entries {
		if err := iw.add(identBytes(id{key: string(e.Key), w: e.Window}), span{off: e.Off, n: e.Len}); err != nil {
			t.Fatal(err)
		}
	}
	if err := iw.flush(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// FuzzDecodeIndexBlock throws arbitrary bytes at the index-block decoder.
// The index log is scanned on every prefetch miss and on every restore,
// so the decoder is the gate between on-disk bytes and the locations the
// store reads and compacts by: it must reject garbage without panicking
// or sizing an allocation from a corrupt count, the offsets it
// reconstructs must be the running sum the format promises, and anything
// it accepts must survive a trip through the production writer unchanged.
func FuzzDecodeIndexBlock(f *testing.F) {
	flush, compaction := realIndexBlocks(f)
	f.Add(flush)
	f.Add(compaction)
	f.Add([]byte{})
	f.Add(flush[:len(flush)-2]) // truncated entry
	// A count larger than the payload.
	f.Add(binio.PutUvarint(binio.PutUvarint(nil, 0), 1<<40))
	// A base offset that overflows int64, and two lengths whose running
	// sum does.
	f.Add(append(binio.PutUvarint(binio.PutUvarint(nil, 1<<63), 1), 0, 0, 0, 1))
	sum := binio.PutUvarint(binio.PutUvarint(nil, 1<<63-1<<31), 2)
	for i := 0; i < 2; i++ {
		sum = binio.PutUvarint(append(sum, 0, 0, 0), 1<<31-1)
	}
	f.Add(sum)

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := DecodeIndexBlock(b)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("accepted a block without entries: %x", b)
		}
		for i, e := range entries {
			if e.Off < 0 || e.Len < 0 {
				t.Fatalf("entry %d has negative location %d+%d", i, e.Off, e.Len)
			}
			if i > 0 && e.Off != entries[i-1].Off+int64(entries[i-1].Len) {
				t.Fatalf("entry %d at %d does not follow entry %d (%d+%d)",
					i, e.Off, i-1, entries[i-1].Off, entries[i-1].Len)
			}
		}
		// The writer splits at indexBlockBytes, so a large accepted block
		// may come back as several; their concatenation must be equal.
		var again []IndexEntry
		for _, block := range encodeIndexBlocks(t, entries) {
			part, err := DecodeIndexBlock(block)
			if err != nil {
				t.Fatalf("re-encoded block rejected: %v", err)
			}
			again = append(again, part...)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
		}
		for i := range entries {
			a, e := again[i], entries[i]
			if !bytes.Equal(a.Key, e.Key) || a.Window != e.Window || a.Off != e.Off || a.Len != e.Len {
				t.Fatalf("round trip changed entry %d: %+v -> %+v", i, e, a)
			}
		}
	})
}
