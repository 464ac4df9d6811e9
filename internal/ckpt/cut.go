package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/logfile"
)

// CutName is the one file that describes a checkpoint directory: a header
// frame, then sections, each a run of whole binio frames, then a table
// frame naming every section with its offset, length and CRC32C, then an
// 8-byte footer holding the table's offset. Everything else in the
// directory is a file some instance's files section names.
const CutName = "CUT"

// cutMagic versions the CUT encoding: v2 deflated the chunks of a replay
// stream, v3 dropped the parent's name from the header, v4 its chain depth
// — every file is whole, so nothing counts the cuts since a base.
const cutMagic = "flowkv-cut-v4"

// footerLen is the CUT's trailing table offset.
const footerLen = 8

// The sections of an instance, each named InstPrefix(i)+kind, and the
// checkpoint's application metadata.
const (
	// KindFiles is an instance's files (Meta.Encode); every instance has
	// one.
	KindFiles = "files"
	// KindLive is a segment store's liveness bitmaps (EncodeLiveness).
	KindLive = "live"
	// KindDump is a replay stream (Cut.Stream): AUR's Stat rows, RMW's
	// write buffer.
	KindDump = "dump"
	// AppMeta is the application metadata, one frame around its deflate
	// stream; absent when the checkpoint carries none.
	AppMeta = "appmeta"
)

// ErrBadCut reports an undecodable or inconsistent CUT file.
var ErrBadCut = errors.New("ckpt: invalid CUT file")

// Header is what a CUT says about the checkpoint as a whole: the store's
// pattern and instance count.
type Header struct {
	Pattern   int
	Instances int
}

func (h Header) encode() []byte {
	p := binio.PutString(nil, cutMagic)
	p = binio.PutUvarint(p, uint64(h.Pattern))
	return binio.AppendRecord(nil, binio.PutUvarint(p, uint64(h.Instances)))
}

// Section is one entry of a CUT's table.
type Section struct {
	Name     string
	Off, Len int64
	CRC      uint32
}

func encodeTable(secs []Section) []byte {
	p := binio.PutUvarint(nil, uint64(len(secs)))
	for _, s := range secs {
		p = binio.PutString(p, s.Name)
		p = binio.PutUvarint(binio.PutUvarint(p, uint64(s.Off)), uint64(s.Len))
		p = binio.PutUint32(p, s.CRC)
	}
	return binio.AppendRecord(nil, p)
}

// Writer writes a checkpoint's CUT file. Instances write their sections
// concurrently: each section goes in whole under the writer's lock. A
// failed write is sticky; Close reports it.
type Writer struct {
	fsys faultfs.FS
	dir  string

	mu   sync.Mutex
	f    faultfs.File
	off  int64
	secs []Section
	err  error
}

// Create starts the CUT file of the checkpoint directory dir with h.
func Create(fsys faultfs.FS, dir string, h Header) (*Writer, error) {
	f, err := fsys.Create(filepath.Join(dir, CutName))
	if err != nil {
		return nil, err
	}
	w := &Writer{fsys: fsys, dir: dir, f: f}
	if w.write(h.encode()); w.err != nil {
		f.Close()
		return nil, w.err
	}
	return w, nil
}

// Path is the CUT file's path.
func (w *Writer) Path() string { return filepath.Join(w.dir, CutName) }

// write appends p to the file; the caller holds mu or owns w.
func (w *Writer) write(p []byte) {
	if w.err == nil {
		_, w.err = w.f.Write(p)
		w.off += int64(len(p))
	}
}

// Put writes frames, whole binio frames, as the section name.
func (w *Writer) Put(name string, frames []byte) error {
	return w.Stream(name, func(write func([]byte)) error {
		write(frames)
		return nil
	})
}

// Stream writes the section name from what fn hands write, whole frames
// each: the section is their concatenation. fn runs under the writer's
// lock, which keeps the section contiguous, so it must not call w.
func (w *Writer) Stream(name string, fn func(write func(frames []byte)) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	sec := Section{Name: name, Off: w.off}
	err := fn(func(p []byte) {
		w.write(p)
		sec.CRC = binio.ChecksumUpdate(sec.CRC, p)
	})
	if err != nil && w.err == nil {
		w.err = err
	}
	sec.Len = w.off - sec.Off
	w.secs = append(w.secs, sec)
	return w.err
}

// Close writes the table and the footer and closes the file, without an
// fsync: the CUT joins the commit's sync window. Close after a failure
// closes the file and returns the failure; a second Close does nothing.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	at := w.off
	w.write(encodeTable(w.secs))
	w.write(binio.PutUint64(nil, uint64(at)))
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	w.f = nil
	return w.err
}

// CutFile is a decoded CUT file.
type CutFile struct {
	Header
	Sections []Section
	// Files is each instance's files section, decoded.
	Files []*Meta
	b     []byte
}

// ReadCut reads and decodes dir's CUT file. A directory without one is
// not a checkpoint: the missing-file error is returned like any other
// read failure.
func ReadCut(fsys faultfs.FS, dir string) (*CutFile, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, CutName))
	if err != nil {
		return nil, err
	}
	return DecodeCut(b)
}

// DecodeCut parses a CUT file and checks every section against its CRC.
// It never panics, whatever the input; what the Writer could not have
// written fails with ErrBadCut, wrapping a *binio.FrameError for a frame
// or section that fails its checksum, and ErrBadMeta for a files section
// that does not decode. The sections alias b.
func DecodeCut(b []byte) (*CutFile, error) {
	bad := func(why string, err error) (*CutFile, error) {
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrBadCut, why, err)
		}
		return nil, fmt.Errorf("%w: %s", ErrBadCut, why)
	}
	p, hn, err := binio.ReadRecord(b)
	if err != nil {
		return bad("corrupt header", err)
	}
	// A cursor over the header's fields, then the table's: a failed
	// decode consumes nothing and clears ok.
	ok := true
	str := func() string {
		s, n, err := binio.String(p)
		ok, p = ok && err == nil, p[n:]
		return s
	}
	num := func() int {
		v, n, err := binio.Uvarint(p)
		ok, p = ok && err == nil && v <= 1<<31, p[n:]
		return int(v)
	}
	if str() != cutMagic || !ok {
		return bad("bad magic", nil)
	}
	c := &CutFile{Header: Header{Pattern: num(), Instances: num()}, b: b}
	end, at := len(b)-footerLen, uint64(0)
	if end >= hn {
		at, _ = binio.Uint64(b[end:])
	}
	if end < hn || at < uint64(hn) || at > uint64(end) {
		return bad("no table", &binio.FrameError{Reason: "no table before the footer"})
	}
	p, n, err := binio.ReadRecord(b[at:end])
	if err == nil && int(at)+n != end {
		err = &binio.FrameError{Reason: "table does not end at the footer"}
	}
	if err != nil {
		return bad("corrupt table", err)
	}
	for count := num(); ok && len(c.Sections) < count; {
		sec := Section{Name: str(), Off: int64(num()), Len: int64(num())}
		crc, err := binio.Uint32(p)
		if ok = ok && err == nil; ok {
			sec.CRC, p = crc, p[4:]
			c.Sections = append(c.Sections, sec)
		}
	}
	// Canonical: the header and table are what the Writer writes for what
	// they hold, and the sections tile the bytes between them in order.
	if !ok || !bytes.Equal(c.Header.encode(), b[:hn]) || !bytes.Equal(encodeTable(c.Sections), b[at:end]) {
		return bad("not canonical", nil)
	}
	next := int64(hn)
	for i, sec := range c.Sections {
		if sec.Off != next || sec.Len > int64(at)-next || sec.Name == "" || c.index(sec.Name) != i {
			return bad(fmt.Sprintf("section %q out of place", sec.Name), nil)
		}
		if got := binio.Checksum(b[next : next+sec.Len]); got != sec.CRC {
			return bad("section "+sec.Name, &binio.FrameError{Reason: fmt.Sprintf("checksum mismatch: table %08x, bytes %08x", sec.CRC, got)})
		}
		next += sec.Len
	}
	if next != int64(at) {
		return bad("sections do not reach the table", nil)
	}
	// Checked against the sections first: a crafted instance count must
	// not drive the loop.
	if c.Instances > len(c.Sections) {
		return bad(fmt.Sprintf("%d instances but %d sections", c.Instances, len(c.Sections)), nil)
	}
	for i := 0; i < c.Instances; i++ {
		name := InstPrefix(i) + KindFiles
		sb, found := c.Section(name)
		if !found {
			return bad("instance has no files section", nil)
		}
		m, err := DecodeMeta(sb)
		if err != nil {
			return bad(name, err)
		}
		c.Files = append(c.Files, m)
	}
	return c, nil
}

func (c *CutFile) index(name string) int {
	return slices.IndexFunc(c.Sections, func(s Section) bool { return s.Name == name })
}

// Section returns the bytes of the section name.
func (c *CutFile) Section(name string) ([]byte, bool) {
	i := c.index(name)
	if i < 0 {
		return nil, false
	}
	s := c.Sections[i]
	return c.b[s.Off : s.Off+s.Len], true
}

// Record returns the payload of the section name that is one frame.
func (c *CutFile) Record(name string) ([]byte, bool, error) {
	b, ok := c.Section(name)
	if !ok {
		return nil, false, nil
	}
	p, n, err := binio.ReadRecord(b)
	if err == nil && n != len(b) {
		err = &binio.FrameError{Reason: "not one whole frame"}
	}
	if err != nil {
		return nil, true, fmt.Errorf("%w: section %s: %w", ErrBadCut, name, err)
	}
	return p, true, nil
}

// Size is the CUT file's length.
func (c *CutFile) Size() int64 { return int64(len(c.b)) }

// EachFile hands fn every file the checkpoint's files sections name, with
// its name in the checkpoint directory, instance by instance; it stops at
// fn's first error and returns it.
func (c *CutFile) EachFile(fn func(name string, f *FileState) error) error {
	for i, m := range c.Files {
		for j := range m.Files {
			if err := fn(FileName(i, m.Files[j].Logical), &m.Files[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Source is one instance's part of a decoded checkpoint, what its Restore
// reads: the files in Dir its files section Meta names, and its other
// sections.
type Source struct {
	Dir  string
	Meta *Meta
	cut  *CutFile
	inst int
}

// Source returns instance inst's part of the checkpoint c, rooted at dir.
func (c *CutFile) Source(dir string, inst int) *Source {
	return &Source{Dir: dir, Meta: c.Files[inst], cut: c, inst: inst}
}

// Section returns the instance's section kind; a missing one is an
// ErrBadCut.
func (s *Source) Section(kind string) ([]byte, error) {
	name := InstPrefix(s.inst) + kind
	b, ok := s.cut.Section(name)
	if !ok {
		return nil, fmt.Errorf("%w: no %s section", ErrBadCut, name)
	}
	return b, nil
}

// Restore links the instance's file f back to the live file at dst — a
// checkpoint's file is never written again, so the live store may share
// its inode — and opens it with open, sealed; where links are refused it
// is copied and the copy fsynced, as a later cut links it as durable. A
// file whose length is not f.Len fails with ErrBadMeta.
func (s *Source) Restore(fsys faultfs.FS, f *FileState, dst string, open func() (*logfile.Log, error)) error {
	linked, err := faultfs.LinkOrCopy(fsys, filepath.Join(s.Dir, FileName(s.inst, f.Logical)), dst)
	if err != nil {
		return err
	}
	l, err := open()
	if err == nil && !linked {
		err = l.Sync()
	}
	if err == nil && l.Size() != f.Len {
		err = fmt.Errorf("%w: %s is %d bytes, the files section says %d", ErrBadMeta, f.Logical, l.Size(), f.Len)
	}
	return err
}

// Replay hands fn the records of the instance's stream section kind in
// order; rec is valid only during the call. The section is the one
// Stream wrote: anything else — a flipped bit, a zeroed page, a chunk that
// inflates to more than streamChunk bytes or, before the last, to fewer,
// a section that ends mid-record — stops the replay with an error
// wrapping a *binio.FrameError, never with a silently short stream. An
// error from fn stops it too and is returned as is.
func (s *Source) Replay(kind string, fn func(rec []byte) error) error {
	b, err := s.Section(kind)
	if err != nil {
		return err
	}
	bad := func(err error) error { return fmt.Errorf("ckpt: replay %s: %w", kind, err) }
	// chunk is the inflated chunk; pending, when a record spans chunks,
	// the bytes from its start on.
	var chunk, pending []byte
	for off := 0; off < len(b); {
		frame, n, err := binio.ReadRecord(b[off:])
		if errors.Is(err, binio.ErrShortBuffer) {
			err = &binio.FrameError{Reason: fmt.Sprintf("section ends mid-frame at %d", off)}
		}
		if err != nil {
			return bad(err)
		}
		off += n
		if chunk, err = binio.InflateAtMost(chunk[:0], frame, streamChunk); err != nil {
			return bad(err)
		}
		if len(chunk) == 0 || len(chunk) < streamChunk && off < len(b) {
			return bad(&binio.FrameError{Reason: fmt.Sprintf("chunk ending at offset %d holds %d bytes", off, len(chunk))})
		}
		recs := chunk
		if len(pending) > 0 {
			pending = append(pending, chunk...)
			recs = pending
		}
		for {
			rec, n, err := binio.Bytes(recs)
			if err != nil {
				break // the rest starts a record the next chunk ends
			}
			if err := fn(rec); err != nil {
				return err
			}
			recs = recs[n:]
		}
		pending = append(pending[:0], recs...)
	}
	if len(pending) > 0 {
		return bad(&binio.FrameError{Reason: fmt.Sprintf("section ends mid-record, %d bytes into it", len(pending))})
	}
	return nil
}
