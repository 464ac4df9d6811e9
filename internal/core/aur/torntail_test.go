package aur

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// TestIndexLogTornTailRecovery tears a segment-log write mid-block — the
// block is where a batch's location and its values both live — and then
// restores the surviving files into a fresh store. The torn tail must be
// truncated on reopen, so batch-1 states read back exactly and batch-2
// states, whose block never landed whole, are simply absent, never
// corrupt.
func TestIndexLogTornTailRecovery(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := Open(Options{
		Dir:              dir,
		WriteBufferBytes: 1, // flush on every append
		ReadBatchRatio:   0,
		Predictor:        window.SessionPredictor{Gap: 100},
		FS:               inj,
	})
	if err != nil {
		t.Fatal(err)
	}

	state := func(i int) (key []byte, w window.Window) {
		return []byte(fmt.Sprintf("s%02d", i)),
			window.Window{Start: int64(i * 10), End: int64(i*10 + 100)}
	}

	// Batch 1: ten states flushed, one segment each.
	for i := 0; i < 10; i++ {
		k, w := state(i)
		if err := s.Append(k, []byte(fmt.Sprintf("val-%02d", i)), w, w.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Batch 2: the segment-log write tears after 5 bytes; everything
	// after is frozen.
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: segmentPrefix + "-", TornBytes: 5, Crash: true})
	var failed bool
	for i := 10; i < 20; i++ {
		k, w := state(i)
		if err := s.Append(k, []byte(fmt.Sprintf("val-%02d", i)), w, w.Start); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		if err := s.Flush(); err == nil {
			t.Fatal("flush through a torn segment write unexpectedly succeeded")
		}
	}
	if !inj.Fired() {
		t.Fatal("fault never fired")
	}
	_ = s.Close()
	inj.Reset()

	// Reboot: assemble a checkpoint from the surviving on-disk files —
	// each log as one whole-file checkpoint segment under its own name, a
	// liveness section counting the entries of each one's whole blocks, all
	// live, and a Stat stream of batch 1's rows, the states whose batches
	// landed. (A real core checkpoint would have been rejected mid-write;
	// this models restoring the instance directory itself after a crash.)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	meta := &ckpt.Meta{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []ckpt.SegLive
	for _, e := range ents {
		var sid uint32
		if _, err := fmt.Sscanf(e.Name(), segmentPrefix+"-%d.log", &sid); err != nil {
			t.Fatalf("unexpected file %s in %s", e.Name(), dir)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sl := ckpt.SegLive{ID: sid}
		for rest := b; len(rest) > 0; {
			block, n, err := binio.ReadRecord(rest)
			if err != nil {
				break // the torn tail
			}
			entries, err := logfile.DecodeSegmentBlock(block, func(*logfile.BlockEntry) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			sl.Entries, rest = sl.Entries+uint32(entries), rest[n:]
		}
		for ord := uint32(0); ord < sl.Entries; ord++ {
			if ord%8 == 0 {
				sl.Bits = append(sl.Bits, 0)
			}
			sl.Bits[ord/8] |= 1 << (ord % 8)
		}
		segs = append(segs, sl)
		seg := ckpt.SegmentName(e.Name(), 0)
		if err := os.WriteFile(filepath.Join(ckptDir, seg), b, 0o644); err != nil {
			t.Fatal(err)
		}
		meta.Files = append(meta.Files, ckpt.FileState{Logical: e.Name(), Epoch: 1,
			Segments: []ckpt.Segment{{Name: seg, Len: int64(len(b)), CRC: binio.Checksum(b)}}})
	}
	if len(segs) < 11 {
		t.Fatalf("%d segments survived, want batch 1's ten and the torn one", len(segs))
	}
	var rows []byte
	for i := 0; i < 10; i++ {
		k, w := state(i)
		rows = binio.PutBytes(rows, binio.PutVarint(w.AppendTo(binio.PutBytes([]byte{statKindSet}, k)), w.Start))
	}
	// The rows fit one chunk of the replay stream: one frame around their
	// deflate stream.
	deflated, err := binio.Deflate(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	err = ckpttest.Write(ckptDir, meta, map[string][]byte{
		ckpt.KindDump: binio.AppendRecord(nil, deflated),
		ckpt.KindLive: ckpt.EncodeLiveness(segs),
	})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{
		Dir:              filepath.Join(t.TempDir(), "fresh"),
		WriteBufferBytes: 1,
		ReadBatchRatio:   0,
		Predictor:        window.SessionPredictor{Gap: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Destroy()
	if err := fresh.restoreFrom(ckptDir); err != nil {
		t.Fatalf("restore of torn-segment checkpoint: %v", err)
	}
	for i := 0; i < 10; i++ {
		k, w := state(i)
		vals, err := fresh.Get(k, w)
		if err != nil {
			t.Fatalf("get batch-1 state %s: %v", k, err)
		}
		if len(vals) != 1 || string(vals[0]) != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("state %s = %q, want [val-%02d]", k, vals, i)
		}
	}
	for i := 10; i < 20; i++ {
		k, w := state(i)
		vals, err := fresh.Get(k, w)
		if err != nil {
			t.Fatalf("get batch-2 state %s after torn segment: %v", k, err)
		}
		if vals != nil {
			t.Fatalf("torn batch-2 state %s resurrected: %q", k, vals)
		}
	}
}
