// Package logfile implements the on-disk substrate shared by all stores in
// this repository: append-only log files with buffered writes, framed
// record scanning and positional reads.
//
// Every byte of I/O performed through this package is charged to a
// metrics.Breakdown so that experiment harnesses can reproduce the
// paper's I/O accounting without external tooling.
package logfile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/metrics"
)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("logfile: closed")

// ErrSealed reports an append to a log that has given up its write buffer
// (see Log.Seal).
var ErrSealed = errors.New("logfile: sealed")

// ErrPoisoned reports an operation on a log whose write path failed. A
// failed fsync may have dropped dirty pages without telling us which
// (the "fsyncgate" failure mode), so the log never retries fsync on the
// same file descriptor: mutations are rejected until ReopenAtDurable
// rebuilds the file from the last durable offset. Reads keep working,
// served from the durable prefix plus the in-memory unsynced tail.
var ErrPoisoned = errors.New("logfile: poisoned by earlier write failure")

// MaxTailBytes caps the in-memory copy of unsynced appends a Log keeps
// for rewrite-after-reopen. Beyond the cap the log stops retaining the
// tail; a subsequent write failure then makes unsynced data
// unrecoverable and ReopenAtDurable refuses, forcing the store to report
// Failed instead of silently losing acked writes.
var MaxTailBytes = 8 << 20

// ErrCorruptRecord reports a record whose bytes came back from the disk
// successfully but failed verification: a checksum mismatch, a mangled
// frame, or a record whose decoded length disagrees with the index. It is
// the typed face of silent corruption — distinct from ErrPoisoned (the
// write path failed) and from I/O errors (the read itself failed).
var ErrCorruptRecord = errors.New("logfile: corrupt record")

// CorruptError carries the forensics of a corrupt record: which file, at
// what offset, and the underlying frame failure (a *binio.FrameError with
// the expected-vs-got checksums when the CRC mismatched). It matches both
// ErrCorruptRecord and binio.ErrCorrupt under errors.Is.
type CorruptError struct {
	// Path is the log file containing the bad frame.
	Path string
	// Off is the file offset at which the bad frame starts.
	Off int64
	// Err is the underlying verification failure.
	Err error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("logfile: %s: corrupt record at offset %d: %v", e.Path, e.Off, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is reports a match for the ErrCorruptRecord sentinel (the wrapped error
// chain additionally matches binio.ErrCorrupt).
func (e *CorruptError) Is(target error) bool { return target == ErrCorruptRecord }

// corruptErr builds a CorruptError, normalizing a bare cause.
func corruptErr(path string, off int64, cause error) error {
	if cause == nil {
		cause = binio.ErrCorrupt
	}
	return &CorruptError{Path: path, Off: off, Err: cause}
}

// ioBufBytes sizes a log's write buffer and its scan buffer: appends
// reach the file, and scans read it, in pieces of this size.
const ioBufBytes = 256 * 1024

// minScanBufBytes is the smallest scan buffer a log allocates.
const minScanBufBytes = 4 * 1024

// writers recycles the logs' write buffers. A store whose log is a set of
// short-lived files (one RMW segment per write-buffer eviction) creates
// thousands of logs in a run; a fresh ioBufBytes buffer each would make
// the buffers most of what the process allocates.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, ioBufBytes) }}

// takeWriter returns a pooled write buffer aimed at w, empty and with no
// error: Reset clears both whatever its last owner left.
func takeWriter(w io.Writer) *bufio.Writer {
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// Log is a single append-only file of framed records. A Log performs no
// locking: it is owned by whichever goroutine holds its store instance's
// I/O lock, and the only method safe to call outside that ownership is
// ReadRecordAtRaw (a positional read that touches no mutable state).
//
// A Log tracks its durable offset — the size covered by the last
// successful Sync — and retains the framed bytes appended past it (the
// tail, capped at MaxTailBytes). When a write or sync fails the log is
// poisoned: see ErrPoisoned.
type Log struct {
	fs     faultfs.FS
	path   string
	f      faultfs.File
	w      *bufio.Writer
	rw     *binio.RecordWriter
	bd     *metrics.Breakdown
	closed bool

	durable int64  // offset covered by the last successful Sync
	crc     uint32 // CRC32C of the log's bytes, [0, Size())
	tail    []byte // framed bytes appended past durable, if tailOK
	tailOK  bool
	perr    error // first write-path error; non-nil means poisoned

	// scanBuf is the read buffer scans of this log share, allocated by
	// the first Scanner call and lent to one Scanner at a time: scanLent
	// is set while a scanner that has not yet reached the end holds it.
	scanBuf  []byte
	scanLent bool

	pol atomic.Pointer[Policy] // I/O deadline + latency observation; nil = passthrough
}

// Create creates (or truncates) an append-only log at path. The breakdown
// may be nil, in which case I/O is not accounted.
func Create(path string, bd *metrics.Breakdown) (*Log, error) {
	return CreateFS(faultfs.OS, path, bd)
}

// CreateFS is Create against an explicit filesystem, the seam used by
// fault-injection tests.
func CreateFS(fsys faultfs.FS, path string, bd *metrics.Breakdown) (*Log, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("logfile: create: %w", err)
	}
	return newLog(fsys, path, f, 0, 0, bd), nil
}

// Open opens an existing log for appending; new records go after any valid
// prefix. Torn trailing records from a crash are truncated away.
func Open(path string, bd *metrics.Breakdown) (*Log, error) {
	return OpenFS(faultfs.OS, path, bd)
}

// OpenFS is Open against an explicit filesystem.
func OpenFS(fsys faultfs.FS, path string, bd *metrics.Breakdown) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logfile: open: %w", err)
	}
	end, crc, err := recoverEnd(path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("logfile: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("logfile: seek: %w", err)
	}
	return newLog(fsys, path, f, end, crc, bd), nil
}

// recoverEnd scans f and returns the offset one past its last valid
// record and the CRC32C up to it. Corruption before the final record (a
// torn tail is fine; mid-file rot is not) fails the open with a typed
// CorruptError, so a store never resumes over bytes it cannot vouch for.
func recoverEnd(path string, f faultfs.File) (int64, uint32, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	sc := binio.NewRecordScanner(f, 0).Buffer(make([]byte, ioBufBytes))
	var crc uint32
	for sc.Scan() {
		crc = binio.ChecksumUpdate(crc, sc.Frame())
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("logfile: recover: %w", corruptErr(path, sc.Offset(), err))
	}
	return sc.Offset(), crc, nil
}

func newLog(fsys faultfs.FS, path string, f faultfs.File, off int64, crc uint32, bd *metrics.Breakdown) *Log {
	// Bytes present at open are on disk already; treat them as the
	// durable baseline a reopen may truncate back to.
	l := &Log{fs: fsys, path: path, bd: bd, durable: off, crc: crc, tailOK: true}
	// Every descriptor is wrapped in the policy guard so deadlines and
	// latency observation apply uniformly; with no policy installed the
	// guard is a passthrough.
	l.f = &guard{lg: l, f: f}
	l.w = takeWriter(l.f)
	l.rw = binio.NewRecordWriter(l.w, off)
	return l
}

// Path returns the file path of the log.
func (l *Log) Path() string { return l.path }

// Size returns the logical size of the log: the offset one byte past the
// last appended record, including any bytes still in the write buffer.
func (l *Log) Size() int64 { return l.rw.Offset() }

// CRC returns the CRC32C of the log's Size() bytes as they were appended,
// never read back; ReopenAtDurable rewrites the same bytes and keeps it.
func (l *Log) CRC() uint32 { return l.crc }

// DurableOffset returns the offset covered by the last successful Sync.
// Records below it survive a reopen; records above it exist only in the
// write path (buffer, page cache, and the retained tail).
func (l *Log) DurableOffset() int64 { return l.durable }

// Closed reports whether the log was closed (or removed).
func (l *Log) Closed() bool { return l.closed }

// Poisoned returns the first write-path error if the log is poisoned,
// nil otherwise.
func (l *Log) Poisoned() error { return l.perr }

// poison records the first write-path failure. From here on mutations
// are rejected (never fsync the same fd again after a failure) until
// ReopenAtDurable.
func (l *Log) poison(err error) {
	if l.perr == nil {
		l.perr = err
	}
}

func (l *Log) poisonedErr() error {
	return fmt.Errorf("%w (%v)", ErrPoisoned, l.perr)
}

// flush pushes buffered appends to the OS, poisoning the log on failure
// (bufio errors are sticky: once a flush fails the buffer contents are
// in an unknown partial state on disk).
func (l *Log) flush() error {
	if l.perr != nil {
		return l.poisonedErr()
	}
	if l.w == nil {
		return nil // sealed: everything appended is on the descriptor
	}
	if err := l.w.Flush(); err != nil {
		l.poison(err)
		return err
	}
	return nil
}

// Append writes one framed record and returns its offset and on-disk
// length (frame included).
func (l *Log) Append(payload []byte) (off int64, n int, err error) {
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.perr != nil {
		return 0, 0, l.poisonedErr()
	}
	if l.w == nil {
		return 0, 0, ErrSealed
	}
	off, n, err = l.rw.Write(payload)
	if err != nil {
		l.poison(err)
		return 0, 0, err
	}
	l.crc = binio.ChecksumUpdate(l.crc, l.rw.Frame())
	if l.tailOK {
		l.tail = binio.AppendRecord(l.tail, payload)
		l.capTail()
	}
	if l.bd != nil {
		l.bd.AddBytesWritten(int64(n))
	}
	return off, n, nil
}

// capTail stops retaining the unsynced tail once it outgrows MaxTailBytes.
func (l *Log) capTail() {
	if len(l.tail) > MaxTailBytes {
		l.tail = nil
		l.tailOK = false
	}
}

// Flush pushes buffered appends to the operating system.
func (l *Log) Flush() error {
	if l.closed {
		return ErrClosed
	}
	return l.flush()
}

// Seal flushes the log and hands its write buffer back to the pool, for
// a log that will take no more appends but stays open to be read — a
// sealed RMW segment lives until its last record is consumed, and there
// can be dozens of them, each otherwise holding ioBufBytes it will never
// use. Reads, scans, Sync and Scrub work as before; Append fails with
// ErrSealed. Recovery undoes the seal:
// ReopenAtDurable needs a buffer to rewrite the retained tail through and
// leaves the log with it. Sealing a sealed log is a no-op.
func (l *Log) Seal() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.flush(); err != nil || l.w == nil {
		return err
	}
	l.releaseWriter()
	return nil
}

// releaseWriter returns the drained, healthy write buffer to the pool.
func (l *Log) releaseWriter() {
	l.w.Reset(nil)
	writers.Put(l.w)
	l.w = nil
}

// Sync flushes and fsyncs the log. SPEs typically disable per-write
// durability (paper §8: persistency features are disabled and recovery
// replays from the source), so stores call Sync only at checkpoints. A
// failed sync poisons the log — the kernel may have dropped the dirty
// pages it could not write, so retrying fsync on this fd would falsely
// succeed; recovery goes through ReopenAtDurable instead.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.flush(); err != nil {
		return err
	}
	start := time.Now()
	err := l.f.Sync()
	if l.bd != nil {
		l.bd.Observe(metrics.OpIOWait, time.Since(start))
	}
	if err != nil {
		l.poison(err)
		return err
	}
	l.durable = l.rw.Offset()
	l.tail = l.tail[:0]
	l.tailOK = true
	return nil
}

// ErrSyncSuperseded reports that the file descriptor a split sync
// targeted was replaced (the log was reopened) between BeginSync and
// FinishSync: the fsync outcome says nothing about the current fd, and
// the caller must redo the sync against current state.
var ErrSyncSuperseded = errors.New("logfile: sync superseded by reopen")

// SyncToken carries a split sync's target state from BeginSync to
// FinishSync.
type SyncToken struct {
	f      faultfs.File
	target int64
}

// BeginSync starts a split sync: it drains buffered appends to the fd
// and returns a commit closure performing the fsync, plus a token for
// FinishSync. The caller holds its I/O lock across BeginSync, releases
// it while running commit — so point reads and flushes of later batches
// overlap the fsync — then re-acquires it and passes the outcome to
// FinishSync. commit touches no mutable Log state; the caller must keep
// at most one split sync in flight per log.
func (l *Log) BeginSync() (SyncToken, func() error, error) {
	if l.closed {
		return SyncToken{}, nil, ErrClosed
	}
	if err := l.flush(); err != nil {
		return SyncToken{}, nil, err
	}
	f, bd := l.f, l.bd
	tok := SyncToken{f: f, target: l.rw.Offset()}
	return tok, func() error {
		start := time.Now()
		err := f.Sync()
		if bd != nil {
			bd.Observe(metrics.OpIOWait, time.Since(start))
		}
		return err
	}, nil
}

// FinishSync completes a split sync under the caller's I/O lock, given
// commit's outcome. On success it advances the durable offset to the
// token's target and drops the covered tail prefix — appends that ran
// during the fsync keep their tail bytes and stay pending for the next
// sync. A failed fsync poisons the log exactly as Sync does, unless the
// fd was already replaced (the failure belongs to a dead descriptor).
func (l *Log) FinishSync(tok SyncToken, serr error) error {
	if serr != nil {
		if !l.closed && l.f == tok.f {
			l.poison(serr)
		}
		return serr
	}
	if l.closed {
		return ErrClosed
	}
	if l.f != tok.f {
		return ErrSyncSuperseded
	}
	if l.perr != nil {
		return l.poisonedErr()
	}
	if tok.target > l.durable {
		drop := tok.target - l.durable
		switch {
		case l.tailOK && drop >= int64(len(l.tail)):
			l.tail = l.tail[:0]
		case l.tailOK:
			l.tail = append(l.tail[:0], l.tail[drop:]...)
		case l.rw.Offset() <= tok.target:
			// The tail had overflowed, but everything it failed to
			// retain is now fsynced: retention can restart.
			l.tail = l.tail[:0]
			l.tailOK = true
		}
		l.durable = tok.target
	}
	return nil
}

// ReopenAtDurable recovers a poisoned log: it discards the suspect file
// descriptor, truncates the file back to the durable offset, and
// rewrites the retained tail so every previously returned record offset
// stays valid. It is a no-op on a healthy log. If the tail was not
// retained (MaxTailBytes exceeded) and unsynced records exist, it
// refuses: those records are unrecoverable and the caller must report
// the loss rather than mask it.
func (l *Log) ReopenAtDurable() error {
	if l.closed {
		return ErrClosed
	}
	if l.perr == nil {
		return nil
	}
	if !l.tailOK && l.rw.Offset() > l.durable {
		return fmt.Errorf("logfile: reopen %s: %d unsynced bytes exceed the retained tail: %w",
			l.path, l.rw.Offset()-l.durable, l.perr)
	}
	l.f.Close() // fd is suspect; close errors carry no extra information
	// (a guard stalled past its deadline skips the close entirely)
	f, err := l.fs.OpenFile(l.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("logfile: reopen: %w", err)
	}
	if err := f.Truncate(l.durable); err != nil {
		f.Close()
		return fmt.Errorf("logfile: reopen truncate: %w", err)
	}
	if _, err := f.Seek(l.durable, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("logfile: reopen seek: %w", err)
	}
	g := &guard{lg: l, f: f}
	w := takeWriter(g) // the poisoned log's own buffer is abandoned, not reused
	if len(l.tail) > 0 {
		if _, err := w.Write(l.tail); err != nil {
			f.Close()
			return fmt.Errorf("logfile: reopen rewrite tail: %w", err)
		}
	}
	l.f = g
	l.w = w
	l.rw = binio.NewRecordWriter(w, l.durable+int64(len(l.tail)))
	l.perr = nil
	return nil
}

// readAt fills buf from offset off, flushing first on a healthy log. On
// a poisoned log (or when the flush itself fails and poisons it) the
// read is served from the durable file prefix stitched with the retained
// in-memory tail, so degraded stores keep serving acked data.
func (l *Log) readAt(buf []byte, off int64) error {
	if l.perr == nil {
		if err := l.flush(); err == nil {
			start := time.Now()
			if _, err := l.f.ReadAt(buf, off); err != nil {
				return fmt.Errorf("logfile: read at %d: %w", off, err)
			}
			if l.bd != nil {
				l.bd.Observe(metrics.OpIOWait, time.Since(start))
			}
			return nil
		}
		// The flush failed and poisoned the log; fall through to the
		// stitched view rather than failing the read.
	}
	return l.preadStitched(buf, off)
}

// preadStitched serves [off, off+len(buf)) of a poisoned log: bytes
// below the durable offset from the file, the rest from the retained
// tail (the file's content past durable is suspect after a failed
// flush/sync).
func (l *Log) preadStitched(buf []byte, off int64) error {
	end := off + int64(len(buf))
	if off < l.durable {
		fn := len(buf)
		if end > l.durable {
			fn = int(l.durable - off)
		}
		start := time.Now()
		if _, err := l.f.ReadAt(buf[:fn], off); err != nil {
			return fmt.Errorf("logfile: read at %d: %w", off, err)
		}
		if l.bd != nil {
			l.bd.Observe(metrics.OpIOWait, time.Since(start))
		}
		buf = buf[fn:]
		off += int64(fn)
	}
	if len(buf) == 0 {
		return nil
	}
	if !l.tailOK {
		return fmt.Errorf("%w: unsynced range [%d,%d) not retained (%v)", ErrPoisoned, off, end, l.perr)
	}
	toff := off - l.durable
	if toff < 0 || toff+int64(len(buf)) > int64(len(l.tail)) {
		return fmt.Errorf("logfile: read at %d: %w", off, io.ErrUnexpectedEOF)
	}
	copy(buf, l.tail[toff:])
	return nil
}

// decodeRecord verifies and decodes the single framed record occupying
// exactly buf, read from offset off. Beyond the checksum it checks that
// the frame consumes the whole buffer: an index entry said n bytes, so a
// valid-looking shorter frame at that offset means the read was stale or
// misdirected, which is corruption, not a decode quirk.
func (l *Log) decodeRecord(buf []byte, off int64) ([]byte, error) {
	payload, used, err := binio.ReadRecord(buf)
	if err != nil {
		return nil, corruptErr(l.path, off, err)
	}
	if used != len(buf) {
		return nil, corruptErr(l.path, off,
			fmt.Errorf("frame spans %d of %d indexed bytes (stale or misdirected read)", used, len(buf)))
	}
	return payload, nil
}

// ReadRecordAt reads the framed record at offset off, whose total on-disk
// length is n, and returns its payload. The payload is a fresh allocation.
// Bytes that read back mangled (bit rot, zeroed pages) fail verification
// with a CorruptError (errors.Is ErrCorruptRecord).
func (l *Log) ReadRecordAt(off int64, n int) ([]byte, error) {
	if l.closed {
		return nil, ErrClosed
	}
	buf := make([]byte, n)
	if err := l.readAt(buf, off); err != nil {
		return nil, err
	}
	if l.bd != nil {
		l.bd.AddBytesRead(int64(n))
	}
	return l.decodeRecord(buf, off)
}

// ReadRecordAtRaw reads the framed record at offset off, whose total
// on-disk length is len(buf), into buf and returns its payload, which
// aliases buf. It touches neither the write buffer nor any mutable Log
// state, so it is safe to call concurrently with other reads, provided the
// record's bytes were flushed beforehand and no append, flush, or close
// runs concurrently. The RMW store uses it to pread outside its I/O lock
// so point reads overlap fsyncs, into a buffer it reuses.
func (l *Log) ReadRecordAtRaw(off int64, buf []byte) ([]byte, error) {
	start := time.Now()
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("logfile: read range at %d: %w", off, err)
	}
	if l.bd != nil {
		l.bd.Observe(metrics.OpIOWait, time.Since(start))
		l.bd.AddBytesRead(int64(len(buf)))
	}
	return l.decodeRecord(buf, off)
}

// Scanner returns a sequential scanner over the log's records from offset
// base. The log's buffered writes are flushed first; on a poisoned log
// the scan covers the durable prefix stitched with the retained tail.
//
// The scanner reads the file straight into one buffer of up to ioBufBytes.
// The buffer belongs to the Log and is reused by every scan that runs to its
// end — the AUR index scan, scrub passes, AAR's window reads — which is
// safe because a Log has a single owner; a scanner still in use when a
// second one is requested (AAR keeps a gradual window read open across
// calls) keeps the shared buffer, and the second scanner gets a private
// one.
func (l *Log) Scanner(base int64) (*Scanner, error) {
	if l.closed {
		return nil, ErrClosed
	}
	var r io.Reader
	if l.perr == nil && l.flush() == nil {
		r = io.NewSectionReader(l.f, base, l.Size()-base)
	} else {
		// Poisoned (possibly by the flush just above): stitch durable file
		// bytes with the retained tail.
		if !l.tailOK && l.Size() > l.durable {
			return nil, fmt.Errorf("%w: unsynced range [%d,%d) not retained (%v)",
				ErrPoisoned, l.durable, l.Size(), l.perr)
		}
		var parts []io.Reader
		if base < l.durable {
			parts = append(parts, io.NewSectionReader(l.f, base, l.durable-base))
		}
		tstart := base - l.durable
		if tstart < 0 {
			tstart = 0
		}
		if tstart < int64(len(l.tail)) {
			parts = append(parts, bytes.NewReader(l.tail[tstart:]))
		}
		r = io.MultiReader(parts...)
	}
	sc := &Scanner{path: l.path, bd: l.bd}
	// No larger than the log, in powers of two: a store holds dozens of
	// sealed segments of a few KiB, each scanned while it lives.
	want := ioBufBytes
	for want > minScanBufBytes && int64(want/2) >= l.Size() {
		want /= 2
	}
	var buf []byte
	if l.scanLent {
		buf = make([]byte, want)
	} else {
		if len(l.scanBuf) < want {
			l.scanBuf = make([]byte, want)
		}
		buf, l.scanLent, sc.lender = l.scanBuf, true, l
	}
	sc.sc = binio.NewRecordScanner(r, base).Buffer(buf)
	return sc, nil
}

// ScrubSummary aggregates ScrubResults across the logs of one store
// instance.
type ScrubSummary struct {
	// Files is the number of logs scrubbed.
	Files int
	// Records and Bytes total the verified frames across those logs.
	Records int
	Bytes   int64
	// Healed counts logs whose unsynced tail was repaired in place.
	Healed int
}

// Add folds one log's scrub result into the summary.
func (s *ScrubSummary) Add(r ScrubResult) {
	s.Files++
	s.Records += r.Records
	s.Bytes += r.Bytes
	if r.Healed {
		s.Healed++
	}
}

// ScrubResult reports one log's scrub outcome.
type ScrubResult struct {
	// Records is the number of frames that verified cleanly.
	Records int
	// Bytes is the number of bytes covered by verified frames.
	Bytes int64
	// Healed reports that corruption was found past the durable offset
	// and repaired in place by rewriting the retained tail (the
	// durable-offset truncate path). The log is healthy afterwards.
	Healed bool
}

// Scrub verifies every record frame currently in the log against its
// checksum, reading the file itself (not the in-memory tail), so at-rest
// rot is detected even for bytes a degraded read would serve from memory.
// The caller must hold the store's I/O lock, like any other mutating
// method.
//
// Corruption strictly below the durable offset is unrepairable from this
// log alone and is returned as a CorruptError. Corruption at or past the
// durable offset sits in the unsynced suffix, which the log still holds
// in its retained tail: Scrub heals it by the same poison + reopen path a
// failed sync uses (truncate to durable, rewrite the tail) and re-verifies.
// A poisoned log is scrubbed over its stitched durable+tail view without
// attempting repair — ReopenAtDurable already owns that transition.
func (l *Log) Scrub() (ScrubResult, error) {
	var res ScrubResult
	if l.closed {
		return res, ErrClosed
	}
	healed := false
	for attempt := 0; ; attempt++ {
		records, bytes, err := l.scrubPass()
		if err == nil {
			res.Records, res.Bytes, res.Healed = records, bytes, healed
			return res, nil
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Off < l.durable || l.perr != nil || attempt > 0 {
			return res, err
		}
		// Unsynced suffix is rotten on disk but intact in the retained
		// tail: poison and reopen rewrites it, then one re-verify pass
		// confirms the heal took.
		l.poison(fmt.Errorf("scrub: %w", err))
		if rerr := l.ReopenAtDurable(); rerr != nil {
			return res, fmt.Errorf("logfile: scrub repair: %w (corruption: %v)", rerr, err)
		}
		if ferr := l.flush(); ferr != nil {
			return res, ferr
		}
		healed = true
	}
}

// scrubPass verifies the log's frames once. On a healthy log it scans the
// file bytes; on a poisoned one, the stitched durable+tail view.
func (l *Log) scrubPass() (int, int64, error) {
	if l.perr == nil {
		if err := l.flush(); err != nil {
			return 0, 0, err
		}
	}
	sc, err := l.Scanner(0)
	if err != nil {
		return 0, 0, err
	}
	records := 0
	for sc.Scan() {
		records++
	}
	if err := sc.Err(); err != nil {
		return records, sc.Offset(), err
	}
	// A live log never legitimately ends mid-frame (appends are whole
	// frames; torn tails exist only in files recovered after a crash,
	// and open-time recovery truncates those). A trailing partial frame
	// here is rot that zeroed or shortened the suffix.
	if sc.Offset() != l.Size() {
		return records, sc.Offset(), corruptErr(l.path, sc.Offset(),
			fmt.Errorf("trailing %d bytes are not a whole frame", l.Size()-sc.Offset()))
	}
	return records, sc.Offset(), nil
}

// Close flushes and closes the log file, returning its write buffer to
// the pool. The file remains on disk. A second Close returns ErrClosed,
// consistent with every other method on a closed log, so latent
// double-close bugs surface instead of passing silently.
func (l *Log) Close() error {
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.perr != nil {
		// The buffer contents are already suspect; flushing them into
		// the file would only smear more unverifiable bytes after the
		// durable offset.
		l.f.Close()
		return l.poisonedErr()
	}
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			l.f.Close()
			return err
		}
		// Only a healthy, drained buffer is recycled. The early returns
		// above leave a poisoned log's buffer to the collector: beyond the
		// sticky error, a write abandoned at the policy deadline may still
		// read it.
		l.releaseWriter()
	}
	return l.f.Close()
}

// Remove closes the log (if still open) and unlinks its file (the AAR
// store's "clean the per-window log after the read" step). Unlike Close,
// Remove on an already-closed log is not an error: the unlink still
// happens, so cleanup paths that run after an error-path Close converge.
func (l *Log) Remove() error {
	var err error
	if !l.closed {
		err = l.Close()
	}
	if rerr := l.fs.Remove(l.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
		err = rerr
	}
	return err
}

// Scanner iterates a log's framed records sequentially.
type Scanner struct {
	sc   *binio.RecordScanner
	path string
	bd   *metrics.Breakdown
	n    int64
	// lender is the Log whose shared scan buffer this scanner reads
	// into, nil for a private buffer or once the buffer is handed back.
	lender *Log
	done   bool
}

// Scan advances to the next record, reporting false at end of log or at
// the first error; once it has reported false it reads nothing further.
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	prev := s.sc.Offset()
	if s.sc.Scan() {
		s.n += s.sc.Offset() - prev
		return true
	}
	s.Close()
	return false
}

// Close ends the scan: Record is no longer valid, and the log's shared
// scan buffer, if this scanner held it, is free for the next scan. A scan
// that runs to its end closes itself; one abandoned early should be
// closed, or later scans of the log each allocate a buffer of their own.
func (s *Scanner) Close() {
	s.done = true
	if s.lender != nil {
		s.lender.scanLent = false
		s.lender = nil
	}
}

// Record returns the current record payload; valid until the next Scan.
func (s *Scanner) Record() []byte { return s.sc.Record() }

// Offset returns the offset one byte past the current record.
func (s *Scanner) Offset() int64 { return s.sc.Offset() }

// Err returns the first non-EOF error encountered. Corrupt frames are
// wrapped in a CorruptError naming the file and the offset of the last
// valid record before the rot.
func (s *Scanner) Err() error {
	if s.bd != nil && s.n > 0 {
		s.bd.AddBytesRead(s.n)
		s.n = 0
	}
	err := s.sc.Err()
	if err != nil && errors.Is(err, binio.ErrCorrupt) {
		return corruptErr(s.path, s.sc.Offset(), err)
	}
	return err
}

// Dir manages a directory of named log files for one store instance:
// creation, removal and space accounting. It is the substrate for the AAR
// store's per-window files and the AUR/RMW stores' segments (Segments).
type Dir struct {
	fs   faultfs.FS
	root string
	bd   *metrics.Breakdown

	pol atomic.Pointer[Policy] // inherited by every log this Dir opens
}

// OpenDir creates (if needed) and opens a log directory rooted at root.
func OpenDir(root string, bd *metrics.Breakdown) (*Dir, error) {
	return OpenDirFS(faultfs.OS, root, bd)
}

// OpenDirFS is OpenDir against an explicit filesystem; every log created
// or opened through the Dir inherits it.
func OpenDirFS(fsys faultfs.FS, root string, bd *metrics.Breakdown) (*Dir, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("logfile: open dir: %w", err)
	}
	return &Dir{fs: fsys, root: root, bd: bd}, nil
}

// Root returns the directory path.
func (d *Dir) Root() string { return d.root }

// FS returns the filesystem the directory operates against.
func (d *Dir) FS() faultfs.FS { return d.fs }

// Breakdown returns the directory's metrics sink (may be nil).
func (d *Dir) Breakdown() *metrics.Breakdown { return d.bd }

// Create creates a log with the exact name within the directory. The
// new log inherits the directory's I/O policy.
func (d *Dir) Create(name string) (*Log, error) {
	l, err := CreateFS(d.fs, filepath.Join(d.root, name), d.bd)
	if err != nil {
		return nil, err
	}
	l.pol.Store(d.pol.Load())
	return l, nil
}

// OpenSealed opens an existing named log read-only and sealed (Seal), for
// a file never to be written again: its bytes are taken as durable and,
// unverified, as checksumming to crc. It inherits the directory's policy.
func (d *Dir) OpenSealed(name string, crc uint32) (*Log, error) {
	path := filepath.Join(d.root, name)
	f, err := d.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("logfile: open: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("logfile: seek: %w", err)
	}
	l := newLog(d.fs, path, f, size, crc, d.bd)
	l.releaseWriter()
	l.pol.Store(d.pol.Load())
	return l, nil
}

// Remove unlinks the named log file.
func (d *Dir) Remove(name string) error {
	err := d.fs.Remove(filepath.Join(d.root, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// DiskUsage returns the total size in bytes of all files in the directory,
// used for space-amplification accounting in the MSA experiments.
func (d *Dir) DiskUsage() (int64, error) {
	ents, err := d.fs.ReadDir(d.root)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
	}
	return total, nil
}

// RemoveAll deletes the directory and everything under it.
func (d *Dir) RemoveAll() error { return d.fs.RemoveAll(d.root) }
