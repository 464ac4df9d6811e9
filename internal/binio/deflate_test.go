package binio

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// deflatePayloads are inputs of the shapes the writers deflate: empty,
// tiny (stored and Huffman-only blocks), repetitive records, and more than
// one 64 KiB deflate block of incompressible bytes.
func deflatePayloads() [][]byte {
	rng := rand.New(rand.NewSource(33))
	noise := make([]byte, 150<<10)
	rng.Read(noise)
	var recs []byte
	for i := 0; i < 20000; i++ {
		recs = PutVarint(recs, int64(i%7))
		recs = PutString(recs, "session-key")
		recs = PutUvarint(recs, uint64(rng.Intn(300)))
	}
	return [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 40), recs, noise}
}

func mustDeflate(t testing.TB, dst, p []byte) []byte {
	t.Helper()
	z, err := Deflate(dst, p)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// TestDeflateRoundTrip: Deflate and Inflate append to what dst holds, and
// what Inflate returns is exactly what was deflated.
func TestDeflateRoundTrip(t *testing.T) {
	for i, p := range deflatePayloads() {
		z := mustDeflate(t, []byte("head"), p)
		if !bytes.HasPrefix(z, []byte("head")) {
			t.Fatalf("payload %d: Deflate did not append to dst", i)
		}
		got, err := Inflate([]byte("pre"), z[4:])
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !bytes.Equal(got, append([]byte("pre"), p...)) {
			t.Fatalf("payload %d: inflated %d bytes, want pre + %d", i, len(got), len(p))
		}
	}
}

// TestInflateRejectsBadStreams: a stream that is corrupt, ends early, has
// bytes after its end, or holds more than the cap is a FrameError, and dst
// comes back as it was given. (A flipped bit can inflate to other bytes:
// the CRC around the stream catches that, not inflate.)
func TestInflateRejectsBadStreams(t *testing.T) {
	p := deflatePayloads()[3]
	z := mustDeflate(t, nil, p)
	for _, tc := range []struct {
		name  string
		src   []byte
		limit int
	}{
		{"empty", nil, MaxInflated},
		{"reserved block type", []byte{0x07, 0x00}, MaxInflated},
		{"stored block with a bad length check", []byte{0x01, 0x05, 0x00, 0x05, 0x00}, MaxInflated},
		{"zeroed page", make([]byte, 4096), MaxInflated},
		{"truncated", z[:len(z)-1], MaxInflated},
		{"trailing byte", append(append([]byte(nil), z...), 0), MaxInflated},
		{"over the cap", z, len(p) - 1},
	} {
		dst := []byte("keep")
		got, err := InflateAtMost(dst, tc.src, tc.limit)
		var fe *FrameError
		if !errors.As(err, &fe) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want a FrameError", tc.name, err)
		}
		if string(got) != "keep" {
			t.Fatalf("%s: dst came back as %q", tc.name, got)
		}
	}
	if got, err := InflateAtMost(nil, z, len(p)); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("a payload of exactly the cap: %d bytes, %v", len(got), err)
	}
}

// TestInflateAllocatesWithinCap: the buffer inflate grows never holds
// more than one byte past the cap, however far the stream would expand.
func TestInflateAllocatesWithinCap(t *testing.T) {
	z := mustDeflate(t, nil, make([]byte, 8<<20)) // ~8 KiB of stream
	for _, limit := range []int{0, 1, 511, 512, 4097, 1 << 20} {
		got, err := InflateAtMost(nil, z, limit)
		if err == nil {
			t.Fatalf("limit %d: an 8 MiB payload was accepted", limit)
		}
		if cap(got) > limit+1 {
			t.Fatalf("limit %d: grew a %d-byte buffer", limit, cap(got))
		}
	}
}

// TestDeflateWriterResetMatchesFresh: the pooled writer's output depends
// on nothing but its input. A writer that last compressed a different
// payload — or has been reset often enough to wrap its internal offsets —
// writes the bytes a fresh writer does; the sink ledger's byte-identity
// across resume, rescale and migration rests on this.
func TestDeflateWriterResetMatchesFresh(t *testing.T) {
	fresh := func(p []byte) []byte {
		w, err := flate.NewWriter(nil, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		return deflateWith(w, nil, p)
	}
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	ps := deflatePayloads()
	check := func(when string) {
		t.Helper()
		for i := range ps {
			// Compress a different payload first, then this one.
			deflateWith(w, nil, ps[(i+1)%len(ps)])
			if got, want := deflateWith(w, nil, ps[i]), fresh(ps[i]); !bytes.Equal(got, want) {
				t.Fatalf("%s, payload %d: reused writer wrote %d bytes unlike a fresh writer's %d", when, i, len(got), len(want))
			}
		}
	}
	check("reused")
	// Every reset moves the writer's match offsets on by 32 KiB; about
	// 65 000 of them reach the point where it renumbers its table.
	for i := 0; i < 70000; i++ {
		deflateWith(w, nil, nil)
	}
	check("past the offset wraparound")
}

// TestDeflateConcurrent: goroutines sharing the idle writers and readers
// each get the bytes a lone caller gets.
func TestDeflateConcurrent(t *testing.T) {
	ps := deflatePayloads()
	want := make([][]byte, len(ps))
	for i, p := range ps {
		want[i] = mustDeflate(t, nil, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(ps)
				z, err := Deflate(nil, ps[i])
				if err != nil || !bytes.Equal(z, want[i]) {
					t.Errorf("goroutine %d, payload %d: %d bytes, %v; want %d", g, i, len(z), err, len(want[i]))
					return
				}
				if p, err := Inflate(nil, z); err != nil || !bytes.Equal(p, ps[i]) {
					t.Errorf("goroutine %d, payload %d: inflated %d bytes, %v; want %d", g, i, len(p), err, len(ps[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzInflate feeds arbitrary bytes to the bounded inflate behind every
// deflated payload: it must never panic, never grow a buffer past the cap
// (a small one here, so expanding streams reach it), and fail only with a
// FrameError. What it accepts must agree with Inflate under the real cap
// and survive a Deflate round trip.
func FuzzInflate(f *testing.F) {
	ps := deflatePayloads()
	// Small seeds keep the fuzzer's minimisation quick.
	for _, p := range [][]byte{ps[0], ps[1], ps[2], ps[3][:4096]} {
		z := mustDeflate(f, nil, p)
		f.Add(z)
		f.Add(z[:len(z)/2])
		f.Add(append(append([]byte(nil), z...), 0xF7))
	}
	f.Add(mustDeflate(f, nil, make([]byte, 1<<17))) // expands past the cap
	f.Add([]byte{0x07, 0x00})
	f.Add([]byte{0x01, 0x05, 0x00, 0x05, 0x00})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		const limit = 1 << 16
		out, err := InflateAtMost(nil, b, limit)
		if cap(out) > limit+1 {
			t.Fatalf("grew a %d-byte buffer under a %d-byte cap", cap(out), limit)
		}
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FrameError", err)
			}
			if len(out) != 0 {
				t.Fatalf("failed inflate returned %d bytes", len(out))
			}
			return
		}
		if full, err := Inflate(nil, b); err != nil || !bytes.Equal(full, out) {
			t.Fatalf("Inflate disagrees under the real cap: %d bytes, %v; want %d", len(full), err, len(out))
		}
		back, err := Inflate(nil, mustDeflate(t, nil, out))
		if err != nil || !bytes.Equal(back, out) {
			t.Fatalf("round trip: %d bytes, %v; want %d", len(back), err, len(out))
		}
	})
}

// TestInflateReusesReaders: inflate resets a pooled decompressor rather
// than building one per call (a fresh one is five allocations, its
// 32 KiB window among them), so inflating into a dst with room for the
// payload allocates nothing. The repetitive records are left out: a
// dynamic Huffman block whose codes run past 9 bits makes compress/flate
// allocate link tables for that block, pooled reader or not.
func TestInflateReusesReaders(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled readers at random")
	}
	ps := deflatePayloads()
	for i, p := range [][]byte{ps[0], ps[1], ps[2], ps[4]} {
		z := mustDeflate(t, nil, p)
		dst := make([]byte, 0, len(p)+1)
		allocs := testing.AllocsPerRun(100, func() {
			got, err := InflateAtMost(dst, z, len(p))
			if err != nil || len(got) != len(p) {
				t.Fatalf("payload %d: %d bytes, %v", i, len(got), err)
			}
		})
		if allocs != 0 {
			t.Errorf("payload %d: %.1f allocations an inflate, want 0", i, allocs)
		}
	}
}

// TestDeflateBlocks: the stream inflates to the parts back to back, is a
// pure function of them, and codes each part with a table of its own, so
// parts of unlike bytes take fewer bytes than the same bytes deflated as
// one payload by Deflate.
func TestDeflateBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	digits, small, noise := make([]byte, 6000), make([]byte, 6000), make([]byte, 6000)
	for i := range digits {
		digits[i] = '0' + byte(rng.Intn(10))
		small[i] = byte(rng.Intn(3))
		noise[i] = byte(rng.Intn(256))
	}
	for _, parts := range [][][]byte{nil, {nil}, {[]byte("x")}, {nil, []byte("ab"), nil}, {digits, small, noise}} {
		z, err := DeflateBlocks([]byte("head"), parts...)
		if err != nil || !bytes.HasPrefix(z, []byte("head")) {
			t.Fatalf("%d parts: %v, or dst not appended to", len(parts), err)
		}
		got, err := Inflate(nil, z[4:])
		if want := bytes.Join(parts, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d parts: inflated %d bytes, %v; want %d", len(parts), len(got), err, len(want))
		}
		if again, _ := DeflateBlocks([]byte("head"), parts...); !bytes.Equal(again, z) {
			t.Fatalf("%d parts: a second call wrote other bytes", len(parts))
		}
	}
	blocks, _ := DeflateBlocks(nil, digits, small, noise)
	whole := mustDeflate(t, nil, bytes.Join([][]byte{digits, small, noise}, nil))
	if len(blocks) >= len(whole) {
		t.Fatalf("parts in blocks of their own took %d bytes, one stream %d", len(blocks), len(whole))
	}
}
