package binio

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Deflated payloads. A payload written once and read only whole — a sink
// ledger block, a checkpoint's application metadata or dump chunk, an AAR
// flush chunk — is stored as a raw deflate stream (RFC 1951): at
// flate.BestSpeed (Deflate), or Huffman-only (DeflateBlocks), given as
// parts that each get blocks of their own. The column codec passes one of
// the two: AAR chunks go Huffman-only, ledger blocks at BestSpeed, whose
// match search finds the periodic shapes the ledger's byte budget pins.
// Dump chunks and application metadata are rows, not columns, and stay
// one BestSpeed stream. The stream carries no checksum of its own: the
// frame around it does.
//
// Output is a pure function of the input within one build: every call
// resets a pooled writer, and a reset writer emits what a fresh one
// would. compress/flate's output may change between Go releases; what a
// stream inflates to never does.

// MaxInflated is the most bytes a deflated payload may hold. A reader
// holds the whole payload in memory, and deflate expands up to 1032:1, so
// without a cap a few kilobytes of rot could ask for gigabytes. 1 GiB is
// past any payload the writers build: each is one commit's sink results
// or one store cut's operator state, which the writer already holds whole
// in memory twice (raw and deflated) while it writes. Deflate refuses a
// larger payload, so a reader never rejects what a writer committed.
const MaxInflated = 1 << 30

var writers = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return w
}}

var huffWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.HuffmanOnly)
	if err != nil {
		panic(err) // HuffmanOnly is a valid level
	}
	return w
}}

// Deflate appends to dst one deflate stream holding parts back to back at
// flate.BestSpeed, each part past the first in blocks of its own (a sync
// marker of 4 to 5 bytes apart), whose matches may reach back into the
// parts before it. The stream inflates, through Inflate, to the parts
// concatenated. It fails only when they hold more than MaxInflated bytes.
func Deflate(dst []byte, parts ...[]byte) ([]byte, error) {
	return deflatePooled(&writers, dst, parts...)
}

// DeflateBlocks appends to dst one deflate stream holding parts back to
// back, each Huffman-coded in blocks of its own (or stored, where coding
// would not pay) with no string matching. It is for payloads laid out in
// columns: a column coded with its own table costs little more than its
// entropy, where one table over every column costs their mix, and
// skipping the match search roughly halves the CPU of a deflate at
// flate.BestSpeed. Each part past the first costs a sync marker of 4 to
// 5 bytes. The stream inflates, through Inflate, to the parts
// concatenated. Like Deflate's, its bytes are a pure function of the
// parts within one build, and it fails only when they hold more than
// MaxInflated bytes.
func DeflateBlocks(dst []byte, parts ...[]byte) ([]byte, error) {
	return deflatePooled(&huffWriters, dst, parts...)
}

// deflatePooled appends the deflate stream of parts to dst, written by a
// writer from pool.
func deflatePooled(pool *sync.Pool, dst []byte, parts ...[]byte) ([]byte, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxInflated {
		return dst, fmt.Errorf("binio: deflate: %d-byte payload exceeds the %d-byte cap", n, MaxInflated)
	}
	w := pool.Get().(*flate.Writer)
	defer pool.Put(w)
	return deflateWith(w, dst, parts...), nil
}

// deflateWith appends the deflate stream of parts to dst, written by w
// after a reset, each part past the first in blocks of its own.
func deflateWith(w *flate.Writer, dst []byte, parts ...[]byte) []byte {
	out := bytes.NewBuffer(dst)
	w.Reset(out)
	// Writes to a bytes.Buffer never fail, so neither does w.
	for i, p := range parts {
		if i > 0 {
			_ = w.Flush()
		}
		_, _ = w.Write(p)
	}
	_ = w.Close()
	return out.Bytes()
}

// Inflate appends to dst the bytes the deflate stream src holds. A stream
// that is corrupt, ends early, is followed by trailing bytes, or holds
// more than MaxInflated bytes is a *FrameError.
func Inflate(dst, src []byte) ([]byte, error) {
	return InflateAtMost(dst, src, MaxInflated)
}

// inflater is a pooled reader: a decompressor, whose 32 KiB window and
// Huffman tables a reset keeps, and the source it reads.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// InflateAtMost is Inflate with a cap of limit bytes, for a payload whose
// writer bounds it tighter than MaxInflated. It never allocates room for
// more than limit+1 of them: dst grows only as the stream delivers bytes,
// and reading one byte past the cap is what detects it. A dst with room
// for the payload and one byte more is never reallocated.
func InflateAtMost(dst, src []byte, limit int) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // hold no reference to src in the pool
		inflaters.Put(z)
	}()
	r, fr := &z.src, z.fr
	r.Reset(src)
	// Resetting to a bytes.Reader, an io.ByteReader, allocates nothing.
	_ = fr.(flate.Resetter).Reset(r, nil)
	base := len(dst)
	for {
		if len(dst) == cap(dst) {
			grow := max(len(dst)-base, 512)
			grow = min(grow, limit+1-(len(dst)-base))
			dst = append(make([]byte, 0, len(dst)+grow), dst...)
		}
		n, err := fr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst)-base > limit {
			return dst[:base], &FrameError{Reason: fmt.Sprintf("deflated payload exceeds the %d-byte cap", limit)}
		}
		if err == io.EOF {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return dst[:base], &FrameError{Reason: "deflate stream ends early"}
		}
		if err != nil {
			return dst[:base], &FrameError{Reason: fmt.Sprintf("deflate: %v", err)}
		}
	}
	if r.Len() > 0 {
		return dst[:base], &FrameError{Reason: fmt.Sprintf("%d bytes trail the deflate stream", r.Len())}
	}
	return dst, nil
}
