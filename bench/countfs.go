package bench

import (
	"io"
	"os"
	"sync/atomic"
	"time"

	"flowkv/internal/faultfs"
)

// Filesystem calls counted and timed at the faultfs seam.
const (
	fsWrite = iota
	fsPread
	fsFsync
	fsSyncDir
	fsCreate
	fsRemove
	fsRename
	fsLink
	numFSOps
)

var fsOpNames = [numFSOps]string{"write", "pread", "fsync", "syncdir", "create", "remove", "rename", "link"}

// countFS is a pass-through faultfs.FS that counts and times the calls
// the storage layer makes. Reads of whole small files (manifests, JOB
// records) pass uncounted; the log I/O the metrics are about goes
// through File. With a tracer it also records one span per call, parented
// to the backend op in progress on the store that owns the file.
type countFS struct {
	inner faultfs.FS
	tr    *tracer // nil: count only

	calls      [numFSOps]atomic.Int64
	ns         [numFSOps]atomic.Int64
	writeBytes atomic.Int64
	preadBytes atomic.Int64
}

func newCountFS(inner faultfs.FS, tr *tracer) *countFS { return &countFS{inner: inner, tr: tr} }

// observe accounts one call that started at start.
func (c *countFS) observe(op int, owner *tracedBackend, start time.Time) {
	end := time.Now()
	c.calls[op].Add(1)
	c.ns[op].Add(end.Sub(start).Nanoseconds())
	// Data calls leave a span only when slow enough to matter; metadata
	// calls (few, and the stuff commits are made of) always do.
	if c.tr != nil && (op > fsPread || end.Sub(start) >= spanFloor) {
		parent := int32(0)
		if owner != nil {
			parent = owner.cur.Load()
		}
		c.tr.record(c.tr.newID(), parent, "fs."+fsOpNames[op], "", start, end)
	}
}

func (c *countFS) owner(path string) *tracedBackend {
	if c.tr == nil {
		return nil
	}
	return c.tr.owner(path)
}

func (c *countFS) wrap(f faultfs.File, err error, path string) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, path: path}, nil
}

func (c *countFS) Create(path string) (faultfs.File, error) {
	t0 := time.Now()
	f, err := c.inner.Create(path)
	c.observe(fsCreate, c.owner(path), t0)
	return c.wrap(f, err, path)
}

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	if flag&os.O_CREATE == 0 {
		f, err := c.inner.OpenFile(path, flag, perm)
		return c.wrap(f, err, path)
	}
	t0 := time.Now()
	f, err := c.inner.OpenFile(path, flag, perm)
	c.observe(fsCreate, c.owner(path), t0)
	return c.wrap(f, err, path)
}

func (c *countFS) Open(path string) (faultfs.File, error) {
	f, err := c.inner.Open(path)
	return c.wrap(f, err, path)
}

func (c *countFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	c.observe(fsRename, c.owner(newpath), t0)
	return err
}

func (c *countFS) Link(oldpath, newpath string) error {
	t0 := time.Now()
	err := c.inner.Link(oldpath, newpath)
	c.observe(fsLink, c.owner(newpath), t0)
	return err
}

func (c *countFS) Remove(path string) error {
	t0 := time.Now()
	err := c.inner.Remove(path)
	c.observe(fsRemove, c.owner(path), t0)
	return err
}

func (c *countFS) RemoveAll(path string) error {
	t0 := time.Now()
	err := c.inner.RemoveAll(path)
	c.observe(fsRemove, c.owner(path), t0)
	return err
}

func (c *countFS) MkdirAll(path string, perm os.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *countFS) ReadDir(path string) ([]os.DirEntry, error)   { return c.inner.ReadDir(path) }
func (c *countFS) ReadFile(path string) ([]byte, error)         { return c.inner.ReadFile(path) }

func (c *countFS) SyncDir(path string) error {
	t0 := time.Now()
	err := c.inner.SyncDir(path)
	c.observe(fsSyncDir, c.owner(path), t0)
	return err
}

// countFile counts one open file's writes, positional reads and fsyncs.
type countFile struct {
	faultfs.File
	fs   *countFS
	path string
	// owner is resolved on first use: a store opens its logs before the
	// benchmark has wrapped (and registered) the backend around it.
	owner atomic.Pointer[tracedBackend]
}

func (f *countFile) parent() *tracedBackend {
	if b := f.owner.Load(); b != nil {
		return b
	}
	b := f.fs.owner(f.path)
	if b != nil {
		f.owner.Store(b)
	}
	return b
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	f.fs.observe(fsWrite, f.parent(), t0)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.preadBytes.Add(int64(n))
	f.fs.observe(fsPread, f.parent(), t0)
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.observe(fsFsync, f.parent(), t0)
	return err
}

// ReadFrom keeps io.Copy's kernel-assisted path: when the wrapped file
// can read from r directly (os.File lowers to copy_file_range), the
// copy is forwarded whole and accounted as one write.
func (f *countFile) ReadFrom(r io.Reader) (int64, error) {
	t0 := time.Now()
	var n int64
	var err error
	if rf, ok := f.File.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(r)
	} else {
		n, err = io.Copy(struct{ io.Writer }{f.File}, r)
	}
	f.fs.writeBytes.Add(n)
	f.fs.observe(fsWrite, f.parent(), t0)
	return n, err
}

var (
	_ faultfs.FS    = (*countFS)(nil)
	_ io.ReaderFrom = (*countFile)(nil)
)
