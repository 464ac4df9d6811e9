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
// ledger block, a checkpoint's application metadata — is stored as a raw
// deflate stream (RFC 1951) at flate.BestSpeed. The stream carries no
// checksum of its own: the frame around it does.
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

// Deflate appends the deflate stream of p to dst. It fails only when p is
// longer than MaxInflated.
func Deflate(dst, p []byte) ([]byte, error) {
	if len(p) > MaxInflated {
		return dst, fmt.Errorf("binio: deflate: %d-byte payload exceeds the %d-byte cap", len(p), MaxInflated)
	}
	w := writers.Get().(*flate.Writer)
	defer writers.Put(w)
	return deflateWith(w, dst, p), nil
}

// deflateWith appends the deflate stream of p to dst, written by w after a
// reset.
func deflateWith(w *flate.Writer, dst, p []byte) []byte {
	out := bytes.NewBuffer(dst)
	w.Reset(out)
	// Writes to a bytes.Buffer never fail, so neither does w.
	_, _ = w.Write(p)
	_ = w.Close()
	return out.Bytes()
}

// Inflate appends to dst the bytes the deflate stream src holds. A stream
// that is corrupt, ends early, is followed by trailing bytes, or holds
// more than MaxInflated bytes is a *FrameError.
func Inflate(dst, src []byte) ([]byte, error) {
	return InflateAtMost(dst, src, MaxInflated)
}

// InflateAtMost is Inflate with a cap of limit bytes, for a payload whose
// writer bounds it tighter than MaxInflated. It never allocates room for
// more than limit+1 of them: dst grows only as the stream delivers bytes,
// and reading one byte past the cap is what detects it.
func InflateAtMost(dst, src []byte, limit int) ([]byte, error) {
	r := bytes.NewReader(src)
	fr := flate.NewReader(r)
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
