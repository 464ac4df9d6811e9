// Package faultfs is the filesystem seam under every persistent store in
// this repository. Production code runs against OS, a trivial wrapper over
// the os package; tests run against an Injector, which wraps another FS
// and deterministically fails a chosen operation — fail the Nth mutating
// op outright, return an error on sync, tear a write after K bytes, or
// simulate a crash by freezing all subsequent mutations — so crash
// consistency of the checkpoint and log paths can be exercised without
// real power loss.
//
// Only mutating operations (creates, writes, syncs, renames, removes,
// truncates, mkdirs) are counted; reads pass through uncounted, matching
// the failure model of a kernel that loses or tears writes but serves
// back whatever bytes reached the disk. A rule may still target OpRead
// explicitly to model transient read errors, without perturbing the
// mutating-op counter that crash tests key off.
//
// A Rule's Class selects the failure persistence: ClassOnce fails a
// single operation (the historical behaviour), ClassTransient fails a
// bounded run of matching operations then heals, and ClassPersistent
// keeps failing matching operations until the rule is cleared.
//
// Orthogonal to the error and corruption classes, a rule with
// Delay/DelayRamp/Hang set is a stall fault — the gray-failure mode of
// a disk that answers slowly (or not at all) but never errors. Matched
// operations sleep (deterministically jittered and optionally ramping)
// or park until Release, then succeed.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected is the default error returned by an Injector's target op.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed reports a mutating operation attempted after a simulated
// crash froze the filesystem.
var ErrCrashed = errors.New("faultfs: simulated crash (filesystem frozen)")

// ErrDiskIO is an injectable I/O error that unwraps to syscall.EIO, so
// production error classification (errors.Is(err, syscall.EIO)) sees the
// same shape a real kernel failure has.
var ErrDiskIO = fmt.Errorf("faultfs: injected I/O error: %w", syscall.EIO)

// ErrNoSpace is an injectable out-of-space error that unwraps to
// syscall.ENOSPC.
var ErrNoSpace = fmt.Errorf("faultfs: injected no space left on device: %w", syscall.ENOSPC)

// File is the subset of *os.File the storage layer uses.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS abstracts the filesystem operations of the storage layer.
type FS interface {
	// Create creates (or truncates) a read-write file at path.
	Create(path string) (File, error)
	// OpenFile is the generalized open call, mirroring os.OpenFile.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(path string) (File, error)
	Rename(oldpath, newpath string) error
	// Link creates newpath as a hard link to oldpath. Filesystems
	// without hard-link support return an error; callers that can fall
	// back to a copy use LinkOrCopy instead of calling Link directly.
	Link(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	// SyncDir fsyncs the directory itself, making entry creations,
	// removals and renames within it durable.
	SyncDir(path string) error
}

// OS is the production FS, a direct passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

// osFile embeds *os.File so io.Copy into it still finds ReadFrom and
// lowers to copy_file_range (the zero-copy transfer path).
type osFile struct{ *os.File }

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Link(oldpath, newpath string) error   { return os.Link(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// LinkOrCopy hard-links src to dst, falling back to a full copy when the
// filesystem refuses the link (no hard-link support, cross-device, or an
// injected link fault). It reports whether the cheap path was taken. A
// link shares src's inode, so its bytes are exactly as durable as src's:
// on disk if src was fsynced, and otherwise not until one of the two
// names is. A copy is never durable until fsynced. Either way the caller
// owns that sync, so group-commit checkpoints can batch it.
func LinkOrCopy(fsys FS, src, dst string) (linked bool, err error) {
	if err := fsys.Link(src, dst); err == nil {
		return true, nil
	}
	in, err := fsys.Open(src)
	if err != nil {
		return false, err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return false, err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return false, err
	}
	return false, out.Close()
}

// WriteFileAtomic durably replaces the small file at path with data:
// write a temporary sibling (path + ".tmp"), fsync it, close it, rename
// it over path, then fsync the directory. The data is on disk before the
// rename makes it visible, so a crash at any step leaves path holding
// either its old content or data — never a prefix, never an empty file.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// CorruptAtRest mutates the file at path in place, modelling bit rot
// that happened while the bytes sat on disk. The file is rewritten
// through an O_RDWR descriptor — never truncated or renamed — so the
// inode survives and hard-linked siblings (checkpoint segments shared
// across generations) observe the same rot. off addresses the byte to
// damage; a negative off picks the middle of the file.
//
//   - CorruptBitFlip flips one bit of the byte at off.
//   - CorruptZeroPage zeroes the 4 KiB-aligned page containing off
//     (clamped to the file size).
//   - CorruptStale overwrites the page containing off with the file's
//     first page — plausible old bytes where new ones should be. When
//     off lands in the first page (nothing older to serve), it degrades
//     to CorruptZeroPage.
//
// Callers normally pass the base FS (or an unarmed injector): routing
// the rewrite through an armed injector would consume mutating-op
// counts that crash batteries key off. A nil fsys means the real OS
// filesystem.
func CorruptAtRest(fsys FS, path string, kind CorruptKind, off int64) error {
	const pageSize = 4096
	if fsys == nil {
		fsys = OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	size := int64(len(data))
	if size == 0 {
		return fmt.Errorf("faultfs: corrupt at rest %s: file is empty", path)
	}
	if off < 0 {
		off = size / 2
	}
	if off >= size {
		off = size - 1
	}
	var start, end int64
	var patch []byte
	switch kind {
	case CorruptBitFlip:
		start, end = off, off+1
		patch = []byte{data[off] ^ 0x40}
	case CorruptZeroPage, CorruptStale:
		start = off - off%pageSize
		end = start + pageSize
		if end > size {
			end = size
		}
		patch = make([]byte, end-start)
		if kind == CorruptStale && start >= pageSize {
			copy(patch, data[:end-start])
		}
	default:
		return fmt.Errorf("faultfs: corrupt at rest %s: kind %v does not mutate", path, kind)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(patch); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Op classifies a mutating filesystem operation for rule matching.
type Op int

const (
	// OpAny matches every mutating operation.
	OpAny Op = iota
	// OpCreate matches Create and OpenFile calls that may create or
	// truncate a file.
	OpCreate
	// OpWrite matches File.Write.
	OpWrite
	// OpSync matches File.Sync and FS.SyncDir.
	OpSync
	// OpTruncate matches File.Truncate.
	OpTruncate
	// OpRename matches FS.Rename.
	OpRename
	// OpLink matches FS.Link (hard-link creation, the incremental-
	// checkpoint segment-reuse path). Counted as a mutating operation.
	OpLink
	// OpRemove matches FS.Remove and FS.RemoveAll.
	OpRemove
	// OpMkdir matches FS.MkdirAll.
	OpMkdir
	// OpRead matches File.Read, File.ReadAt and FS.ReadFile. Read
	// operations are never counted in the mutating-op counter (crash
	// points stay deterministic) and only fail when a rule targets
	// OpRead explicitly.
	OpRead
)

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpLink:
		return "link"
	case OpRemove:
		return "remove"
	case OpMkdir:
		return "mkdir"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Class describes how a fault behaves after it first fires, modelling
// the error classes real disks exhibit.
type Class int

const (
	// ClassOnce fails exactly one operation — the historical injector
	// behaviour, and the model for a single torn write or crash point.
	ClassOnce Class = iota
	// ClassTransient fails the triggering operation and subsequent
	// matching operations until Times total failures have been served,
	// then heals — the model for a controller hiccup that a bounded
	// retry should ride out.
	ClassTransient
	// ClassPersistent fails the triggering operation and every matching
	// operation after it until the rule is cleared — the model for a
	// dead disk or a full filesystem.
	ClassPersistent
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassOnce:
		return "once"
	case ClassTransient:
		return "transient"
	case ClassPersistent:
		return "persistent"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// CorruptKind selects how a read's bytes are mangled by a corruption
// rule. Corruption faults are orthogonal to the error classes: the read
// SUCCEEDS — no error, full byte count — but the bytes are wrong, the
// failure mode of bit rot, zeroed pages, and lying firmware that only
// checksums can catch.
type CorruptKind int

const (
	// CorruptNone disables corruption (the rule injects errors instead).
	CorruptNone CorruptKind = iota
	// CorruptBitFlip flips one bit in the middle of the returned bytes.
	CorruptBitFlip
	// CorruptZeroPage zeroes the returned bytes, the artifact of a read
	// that hit a never-written or discarded page.
	CorruptZeroPage
	// CorruptStale serves bytes from file offset 0 instead of the
	// requested offset — a misdirected or stale block read. Non-positional
	// reads (whole-file) degrade to CorruptZeroPage.
	CorruptStale
)

// String returns the corruption kind name.
func (k CorruptKind) String() string {
	switch k {
	case CorruptNone:
		return "none"
	case CorruptBitFlip:
		return "bit-flip"
	case CorruptZeroPage:
		return "zero-page"
	case CorruptStale:
		return "stale-block"
	default:
		return fmt.Sprintf("corrupt(%d)", int(k))
	}
}

// Rule selects the operations to fail. Two addressing modes exist: AtOp
// picks the trigger by the injector's global mutating-op index
// (deterministic replay of "crash at operation N"); otherwise the rule
// triggers on the Nth operation with the given kind and path substring.
// Class decides what happens after the trigger: a ClassOnce rule fails
// only the trigger, while ClassTransient/ClassPersistent keep failing
// matching operations after it.
type Rule struct {
	// AtOp, when positive, fires on the AtOp'th mutating operation
	// counted since the injector was created (1-based), ignoring the
	// kind and path filters.
	AtOp int64
	// Op filters by operation kind (OpAny matches all).
	Op Op
	// PathContains filters by substring of the operation's path; empty
	// matches every path.
	PathContains string
	// Nth fires on the Nth match of the filters (1-based; 0 means 1).
	Nth int64
	// TornBytes, for a matched OpWrite, writes that many bytes of the
	// payload through to the underlying file before failing — a torn
	// write. 0 writes nothing.
	TornBytes int
	// Err is the error returned by the failed operation; nil means
	// ErrInjected.
	Err error
	// Crash freezes the filesystem after the fault fires: every later
	// mutating operation returns ErrCrashed until Reset.
	Crash bool
	// Class selects the failure persistence; the zero value is
	// ClassOnce (fail exactly one operation).
	Class Class
	// Times bounds how many failures a ClassTransient rule serves
	// before healing (0 means 1). Ignored for other classes.
	Times int64
	// Corrupt turns a matched OpRead rule into a silent-corruption
	// fault: instead of returning Err, the read succeeds and the
	// returned bytes are mangled per the kind. Only meaningful for
	// rules with Op == OpRead; Err is ignored when Corrupt is set.
	// Class and Times apply as usual, so a ClassOnce corruption models
	// a transient flip (a retry reads clean bytes) while
	// ClassPersistent models at-rest rot on the read path.
	Corrupt CorruptKind
	// Delay turns the rule into a stall fault: a matched operation
	// sleeps for Delay and then SUCCEEDS — no error, no corruption —
	// the gray-failure mode of a slow disk. Stall faults are orthogonal
	// to the error classes the way Corrupt is: Err, Crash and TornBytes
	// are ignored when the rule stalls. Class and Times apply as usual,
	// so ClassPersistent+Delay models a uniformly slow device while
	// ClassOnce+Hang models one hung syscall.
	Delay time.Duration
	// DelayJitter adds a deterministic pseudo-random extra delay in
	// [0, DelayJitter) derived from the rule's hit count — jittered
	// latency without wall-clock or rand dependence, so replays stall
	// identically.
	DelayJitter time.Duration
	// DelayRamp adds DelayRamp*(hit-1) on each successive hit — the
	// slow-ramp profile of a failing disk that degrades a little more
	// with every operation.
	DelayRamp time.Duration
	// Hang parks the matched operation indefinitely: it blocks until
	// the test calls Release (or Reset), then SUCCEEDS. Hang composes
	// with Delay/DelayRamp (the delay is served after release). The
	// model for a hung fsync that only a deadline can detect.
	Hang bool
}

// stalls reports whether the rule is a stall fault (delay/hang) rather
// than an error fault.
func (r Rule) stalls() bool {
	return r.Delay > 0 || r.DelayRamp > 0 || r.Hang
}

// Injector wraps an FS and fails one chosen mutating operation. The zero
// rule never fires, so an Injector with no rule armed is a transparent
// (but counting) passthrough; Ops() then measures how many mutating ops a
// workload performs, which callers use to pick crash points.
type Injector struct {
	base FS

	mu      sync.Mutex
	ops     int64
	matched int64
	hits    int64
	rule    Rule
	armed   bool
	fired   bool
	tripped bool
	crashed bool
	release chan struct{} // closed by Release to unpark Hang'd operations

	parked atomic.Int64 // operations currently inside a stall
}

// NewInjector returns a transparent, counting injector over base.
func NewInjector(base FS) *Injector {
	return &Injector{base: base}
}

// SetRule arms the injector with r, clearing any fired state; the global
// op counter keeps running. Arming a Hang rule creates a fresh release
// gate; any operations still parked on a previous gate are released.
func (i *Injector) SetRule(r Rule) {
	i.mu.Lock()
	old := i.release
	i.rule = r
	i.armed = true
	i.fired = false
	i.tripped = false
	i.matched = 0
	i.hits = 0
	i.release = nil
	if r.Hang {
		i.release = make(chan struct{})
	}
	i.mu.Unlock()
	if old != nil {
		close(old)
	}
}

// Release unparks every operation blocked by a Hang rule and lets future
// matches of the same rule pass without blocking. Idempotent.
func (i *Injector) Release() {
	i.mu.Lock()
	ch := i.release
	i.release = nil
	i.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Stalled returns how many operations are currently parked inside a
// stall (hung or sleeping). Tests poll this to learn that a victim is
// provably stuck before acting on it.
func (i *Injector) Stalled() int64 { return i.parked.Load() }

// Ops returns the number of mutating operations observed so far.
func (i *Injector) Ops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Fired reports whether the armed rule has failed at least one
// operation.
func (i *Injector) Fired() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired || i.hits > 0
}

// Hits returns how many operations the armed rule has failed so far.
func (i *Injector) Hits() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits
}

// Crashed reports whether the filesystem is frozen by a simulated crash.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Reset disarms the rule and thaws a crashed filesystem, releasing any
// operations parked by a Hang rule. The op counter is preserved.
func (i *Injector) Reset() {
	i.mu.Lock()
	old := i.release
	i.rule = Rule{}
	i.armed = false
	i.fired = false
	i.tripped = false
	i.crashed = false
	i.matched = 0
	i.hits = 0
	i.release = nil
	i.mu.Unlock()
	if old != nil {
		close(old)
	}
}

// check records one mutating operation and decides its fate. A negative
// torn value means no partial write; err non-nil means the operation must
// fail with err after writing torn bytes (OpWrite only). Stall faults
// are decided under the lock but served after it, so a hung operation
// never wedges the injector itself.
func (i *Injector) check(op Op, path string) (torn int, err error) {
	i.mu.Lock()
	if i.crashed {
		i.mu.Unlock()
		return -1, ErrCrashed
	}
	i.ops++
	torn, st, err := i.decide(op, path)
	release := i.release
	i.mu.Unlock()
	i.serveStall(st, release)
	return torn, err
}

// stallSpec is the stall a decided operation must serve: sleep for delay
// and/or block on the release gate.
type stallSpec struct {
	delay time.Duration
	hang  bool
}

// serveStall parks the calling operation per st. Must be called without
// i.mu held.
func (i *Injector) serveStall(st stallSpec, release chan struct{}) {
	if !st.hang && st.delay <= 0 {
		return
	}
	i.parked.Add(1)
	defer i.parked.Add(-1)
	if st.hang && release != nil {
		<-release
	}
	if st.delay > 0 {
		time.Sleep(st.delay)
	}
}

// checkRead decides the fate of a read operation. Reads never touch the
// mutating-op counter (so crash points stay deterministic across runs
// with different read patterns) and only fail when the armed rule
// targets OpRead explicitly; a crashed filesystem still serves reads,
// matching a kernel that lost writes but returns the bytes it has.
// When the firing rule carries a CorruptKind the read must SUCCEED and
// the caller mangles the returned bytes instead of erroring.
func (i *Injector) checkRead(path string) (CorruptKind, error) {
	i.mu.Lock()
	if !i.armed || i.rule.Op != OpRead {
		i.mu.Unlock()
		return CorruptNone, nil
	}
	corrupt := i.rule.Corrupt
	_, st, err := i.decide(OpRead, path)
	release := i.release
	i.mu.Unlock()
	i.serveStall(st, release)
	if err != nil && corrupt != CorruptNone {
		return corrupt, nil
	}
	return CorruptNone, err
}

// decide applies the armed rule to one operation. Callers hold i.mu; the
// returned stallSpec must be served by the caller after unlocking.
func (i *Injector) decide(op Op, path string) (torn int, st stallSpec, err error) {
	if !i.armed || i.fired {
		return -1, st, nil
	}
	kindMatch := (i.rule.Op == OpAny || i.rule.Op == op) &&
		(i.rule.PathContains == "" || strings.Contains(path, i.rule.PathContains))
	triggered := false
	if i.rule.AtOp > 0 {
		triggered = i.ops == i.rule.AtOp
	} else if kindMatch {
		i.matched++
		nth := i.rule.Nth
		if nth <= 0 {
			nth = 1
		}
		triggered = i.matched == nth
	}
	fail := false
	switch i.rule.Class {
	case ClassTransient:
		if triggered {
			i.tripped = true
		}
		if i.tripped && (triggered || kindMatch) {
			fail = true
			times := i.rule.Times
			if times <= 0 {
				times = 1
			}
			if i.hits+1 >= times {
				i.fired = true // healed: no further failures
			}
		}
	case ClassPersistent:
		if triggered {
			i.tripped = true
		}
		fail = i.tripped && (triggered || kindMatch)
	default: // ClassOnce
		if triggered {
			fail = true
			i.fired = true
		}
	}
	if !fail {
		return -1, st, nil
	}
	i.hits++
	if i.rule.stalls() {
		// Stall fault: the operation succeeds after the stall. The
		// delay is fully determined by the hit ordinal — ramp grows it
		// linearly, jitter perturbs it via a fixed hash — so a replayed
		// run stalls identically.
		st.delay = i.rule.Delay + time.Duration(i.hits-1)*i.rule.DelayRamp
		if i.rule.DelayJitter > 0 {
			st.delay += time.Duration(uint64(i.hits) * 0x9E3779B97F4A7C15 % uint64(i.rule.DelayJitter))
		}
		st.hang = i.rule.Hang
		return -1, st, nil
	}
	if i.rule.Crash {
		i.crashed = true
	}
	err = i.rule.Err
	if err == nil {
		err = ErrInjected
	}
	if op == OpWrite && i.rule.TornBytes > 0 {
		return i.rule.TornBytes, st, err
	}
	return -1, st, err
}

func (i *Injector) Create(path string) (File, error) {
	if _, err := i.check(OpCreate, path); err != nil {
		return nil, err
	}
	f, err := i.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, path: path}, nil
}

func (i *Injector) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	// Opening with creation or truncation flags mutates the namespace;
	// a pure read-write open of an existing file does not.
	if flag&(os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if _, err := i.check(OpCreate, path); err != nil {
			return nil, err
		}
	}
	f, err := i.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, path: path}, nil
}

func (i *Injector) Open(path string) (File, error) {
	f, err := i.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, path: path}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if _, err := i.check(OpRename, newpath); err != nil {
		return err
	}
	return i.base.Rename(oldpath, newpath)
}

func (i *Injector) Link(oldpath, newpath string) error {
	if _, err := i.check(OpLink, newpath); err != nil {
		return err
	}
	return i.base.Link(oldpath, newpath)
}

func (i *Injector) Remove(path string) error {
	if _, err := i.check(OpRemove, path); err != nil {
		return err
	}
	return i.base.Remove(path)
}

func (i *Injector) RemoveAll(path string) error {
	if _, err := i.check(OpRemove, path); err != nil {
		return err
	}
	return i.base.RemoveAll(path)
}

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	if _, err := i.check(OpMkdir, path); err != nil {
		return err
	}
	return i.base.MkdirAll(path, perm)
}

func (i *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	return i.base.ReadDir(path)
}

func (i *Injector) ReadFile(path string) ([]byte, error) {
	kind, err := i.checkRead(path)
	if err != nil {
		return nil, err
	}
	b, err := i.base.ReadFile(path)
	if err == nil && kind != CorruptNone {
		// Whole-file reads have no "wrong offset" to misdirect to, so
		// CorruptStale degrades to CorruptZeroPage here.
		if kind == CorruptStale {
			kind = CorruptZeroPage
		}
		mangle(kind, b, nil, 0)
	}
	return b, err
}

func (i *Injector) SyncDir(path string) error {
	if _, err := i.check(OpSync, path); err != nil {
		return err
	}
	return i.base.SyncDir(path)
}

// injFile wraps a File, routing mutating calls through the injector.
// Reads and closes pass through: a crash does not revoke already-open
// descriptors, it only prevents further mutation.
type injFile struct {
	inj  *Injector
	f    File
	path string
}

func (f *injFile) Read(p []byte) (int, error) {
	kind, err := f.inj.checkRead(f.path)
	if err != nil {
		return 0, err
	}
	n, rerr := f.f.Read(p)
	if n > 0 && kind != CorruptNone {
		mangle(kind, p[:n], f.f, 0)
	}
	return n, rerr
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	kind, err := f.inj.checkRead(f.path)
	if err != nil {
		return 0, err
	}
	n, rerr := f.f.ReadAt(p, off)
	if n > 0 && kind != CorruptNone {
		mangle(kind, p[:n], f.f, off)
	}
	return n, rerr
}

// mangle applies a corruption kind to bytes just read. For CorruptStale
// the bytes are re-served from file offset 0 through src (a misdirected
// block read); when the read already was at offset 0, or src is nil, or
// the stale fetch fails, it degrades to zeroing — the read still lies.
func mangle(kind CorruptKind, b []byte, src io.ReaderAt, off int64) {
	if len(b) == 0 {
		return
	}
	switch kind {
	case CorruptBitFlip:
		b[len(b)/2] ^= 0x40
	case CorruptStale:
		if src != nil && off != 0 {
			if n, err := src.ReadAt(b, 0); n == len(b) && err == nil {
				return
			}
		}
		fallthrough
	default: // CorruptZeroPage
		for j := range b {
			b[j] = 0
		}
	}
}

func (f *injFile) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }
func (f *injFile) Name() string                              { return f.path }
func (f *injFile) Close() error                              { return f.f.Close() }

func (f *injFile) Write(p []byte) (int, error) {
	torn, err := f.inj.check(OpWrite, f.path)
	if err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.f.Write(p[:torn])
		}
		return n, err
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if _, err := f.inj.check(OpSync, f.path); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if _, err := f.inj.check(OpTruncate, f.path); err != nil {
		return err
	}
	return f.f.Truncate(size)
}
