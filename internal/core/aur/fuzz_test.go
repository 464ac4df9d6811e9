package aur

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// indexBlocks returns the payloads of the records in the store's index
// logs, segment by segment in id order.
func indexBlocks(t testing.TB, s *Store) [][]byte {
	t.Helper()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var blocks [][]byte
	for _, sg := range s.segs.List() {
		blocks = append(blocks, segmentBlocks(t, sg)...)
	}
	return blocks
}

// segmentBlocks returns the payloads of sg's index-log records; caller
// holds ioMu.
func segmentBlocks(t testing.TB, sg *segment) [][]byte {
	t.Helper()
	sc, err := sg.Logs[indexLog].Scanner(0)
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

// realIndexBlocks runs a small store through evictions and a cleaning
// pass and returns one index block written by each.
func realIndexBlocks(f *testing.F) (flush, cleaning []byte) {
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
	flush = indexBlocks(f, s)[0]
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

// encodeIndexBlocks packs entries through the production writer.
func encodeIndexBlocks(t testing.TB, entries []IndexEntry) [][]byte {
	var blocks [][]byte
	iw := indexWriter{emit: func(block []byte, _ int) error {
		blocks = append(blocks, bytes.Clone(block))
		return nil
	}}
	for _, e := range entries {
		if err := iw.add(identBytes(id{key: string(e.Key), w: e.Window}), span{off: e.Off, n: e.Len}, e.Seq); err != nil {
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
// store reads and cleans by: it must reject garbage without panicking
// or sizing an allocation from a corrupt count, the offsets it
// reconstructs must be the running sum the format promises, and anything
// it accepts must survive a trip through the production writer unchanged.
func FuzzDecodeIndexBlock(f *testing.F) {
	flush, cleaning := realIndexBlocks(f)
	f.Add(flush)
	f.Add(cleaning)
	f.Add([]byte{})
	f.Add(flush[:len(flush)-2]) // truncated entry
	// header builds a block header: base, flush sequence, count.
	header := func(base, seq, count uint64) []byte {
		return binio.PutUvarint(binio.PutUvarint(binio.PutUvarint(nil, base), seq), count)
	}
	// A count larger than the payload.
	f.Add(header(0, 1, 1<<40))
	// A base offset that overflows int64, and two lengths whose running
	// sum does.
	f.Add(append(header(1<<63, 1, 1), 0, 0, 0, 1))
	sum := header(1<<63-1<<31, 1, 2)
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
			if e.Seq != entries[0].Seq {
				t.Fatalf("entry %d was written by flush %d, entry 0 by flush %d", i, e.Seq, entries[0].Seq)
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
			if !bytes.Equal(a.Key, e.Key) || a.Window != e.Window || a.Off != e.Off || a.Len != e.Len || a.Seq != e.Seq {
				t.Fatalf("round trip changed entry %d: %+v -> %+v", i, e, a)
			}
		}
	})
}

// FuzzDecodeSegmentsSnapshot throws arbitrary bytes at the segments.snap
// decoder. Restore takes the segment table and every consumed mark from
// it before it looks at an index, so it must reject garbage without
// panicking or sizing an allocation from a corrupt count, return segments
// in ascending id order with states it knows, and anything it accepts must
// come back unchanged through the production encoder.
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
	f.Add(real[:len(real)-3])                                                            // a torn last record
	f.Add(real[:len(real)-len(binio.AppendRecord(nil, []byte{9, logfile.SegmentHead}))]) // one segment fewer than counted
	f.Add(binio.AppendRecord(nil, binio.PutUvarint(nil, 1<<40)))                         // a count larger than the file
	f.Add(binio.AppendRecord(binio.AppendRecord(nil, []byte{1}), []byte{3, 7}))          // an unknown state
	f.Add(binio.AppendRecord(binio.AppendRecord(binio.AppendRecord(nil, []byte{2}), []byte{3, logfile.SegmentHead}), []byte{5, logfile.SegmentHead}))

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
		back, err := DecodeSegmentsSnapshot(encodeSegmentsSnapshot(infos))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		for i := range back {
			if back[i].ID != infos[i].ID || back[i].State != infos[i].State || len(back[i].Marks) != len(infos[i].Marks) {
				t.Fatalf("round trip changed segment %d: %+v -> %+v", i, infos[i], back[i])
			}
			for prefix, mark := range infos[i].Marks {
				if back[i].Marks[prefix] != mark {
					t.Fatalf("round trip changed segment %d's mark for %x: %d -> %d", infos[i].ID, prefix, mark, back[i].Marks[prefix])
				}
			}
		}
		if len(back) != len(infos) {
			t.Fatalf("round trip changed the segment count: %d -> %d", len(infos), len(back))
		}
	})
}
