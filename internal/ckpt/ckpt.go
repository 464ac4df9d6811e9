// Package ckpt holds the checkpoint machinery shared by the three store
// patterns. A checkpoint directory is one CUT file plus segment files: it
// records each logical store file as an ordered list of sealed segment
// files, flat in the directory under the instance's prefix. Segments
// inherited from the previous checkpoint generation are hard-linked into
// the new directory (copy fallback when the filesystem refuses links),
// and only the bytes written since the last barrier are materialized as a
// fresh tail segment. Each instance's files section of the CUT describes
// the mapping — logical name, a file epoch identifying the live file the
// segments were cut from, and each segment's length and CRC32C — so a
// later checkpoint can decide reuse against it and a restore can
// concatenate the segments back into live logs. Every checkpoint
// directory stays physically self-contained: links keep the shared inodes
// alive even after the parent generation is deleted.
package ckpt

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// metaMagic versions the files section's encoding; its header record is
// the magic alone.
const metaMagic = "flowkv-segments-v2"

// ErrBadMeta reports an undecodable or inconsistent files section.
var ErrBadMeta = errors.New("ckpt: invalid files section")

// Segment is one sealed slice of a logical file, stored as its own file
// inside the checkpoint directory.
type Segment struct {
	// Name is the segment's file name in the checkpoint directory.
	Name string
	// Len is the segment's exact byte length.
	Len int64
	// CRC is the CRC32C of the segment's contents.
	CRC uint32
}

// FileState describes one logical store file as an ordered segment list.
type FileState struct {
	// Logical is the live file name the segments reassemble into.
	Logical string
	// Epoch identifies the live file instance the segments were cut
	// from. A checkpoint may extend a parent's segment list only when
	// the live file's epoch still matches the parent's recorded epoch;
	// a mismatch (the file was dropped and recreated, or the store was
	// reopened without a restore) forces a full copy of that file.
	Epoch uint64
	// Segments is the ordered list; their concatenation is the logical
	// file's content at the cut.
	Segments []Segment
}

// TotalLen returns the logical file's length (the sum of segment lengths).
func (f *FileState) TotalLen() int64 {
	var n int64
	for _, s := range f.Segments {
		n += s.Len
	}
	return n
}

// Meta is the decoded files section of one instance in a checkpoint.
type Meta struct {
	// Files lists every logical file, sorted by logical name.
	Files []FileState
}

// File returns the state of a logical file, or nil if absent. A nil
// receiver (no parent checkpoint) returns nil for every name.
func (m *Meta) File(logical string) *FileState {
	if m == nil {
		return nil
	}
	for i := range m.Files {
		if m.Files[i].Logical == logical {
			return &m.Files[i]
		}
	}
	return nil
}

// Rand64 returns a random file epoch. Uniqueness is probabilistic; epochs
// only need to avoid colliding across the handful of file generations a
// checkpoint chain can reference.
func Rand64() uint64 {
	return rand.Uint64()
}

// Encode serializes the meta: a header record then one record per file,
// CRC-framed through binio.
func (m *Meta) Encode() []byte {
	var buf, payload []byte
	buf = binio.AppendRecord(buf, binio.PutString(nil, metaMagic))
	for _, f := range m.Files {
		payload = binio.PutString(payload[:0], f.Logical)
		payload = binio.PutUvarint(payload, f.Epoch)
		payload = binio.PutUvarint(payload, uint64(len(f.Segments)))
		for _, s := range f.Segments {
			payload = binio.PutString(payload, s.Name)
			payload = binio.PutUvarint(payload, uint64(s.Len))
			payload = binio.PutUint32(payload, s.CRC)
		}
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// DecodeMeta parses a files section. It never panics, whatever the
// input; malformed bytes yield ErrBadMeta, wrapping the frame's error
// (a *binio.FrameError for a corrupt frame) when a record fails to read.
func DecodeMeta(b []byte) (*Meta, error) {
	// A cursor over the current record: a failed decode consumes nothing
	// and clears ok; a record that fails to read leaves its error in rerr.
	var rec []byte
	var rerr error
	ok := true
	next := func() bool {
		var n int
		rec, n, rerr = binio.ReadRecord(b)
		b = b[n:]
		return rerr == nil
	}
	bad := func(why string) (*Meta, error) {
		if rerr != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrBadMeta, why, rerr)
		}
		return nil, fmt.Errorf("%w: %s", ErrBadMeta, why)
	}
	str := func() string {
		s, n, err := binio.String(rec)
		ok, rec = ok && err == nil, rec[n:]
		return s
	}
	uvarint := func() uint64 {
		v, n, err := binio.Uvarint(rec)
		ok, rec = ok && err == nil, rec[n:]
		return v
	}
	if !next() {
		return bad("corrupt header")
	}
	if str() != metaMagic || !ok || len(rec) != 0 {
		return bad("bad magic")
	}
	m := &Meta{}
	for len(b) > 0 {
		if !next() {
			return bad("corrupt file record")
		}
		fs := FileState{Logical: str(), Epoch: uvarint()}
		count := uvarint()
		if !ok || count > uint64(len(rec)) {
			return bad("truncated file record")
		}
		for ; count > 0; count-- {
			seg := Segment{Name: str(), Len: int64(uvarint())}
			if !ok || len(rec) < 4 {
				return bad("truncated segment")
			}
			seg.CRC, _ = binio.Uint32(rec)
			rec = rec[4:]
			fs.Segments = append(fs.Segments, seg)
		}
		m.Files = append(m.Files, fs)
	}
	return m, nil
}

// Result is what an instance's cut hands back to the composite store: the
// segment files that still need an fsync before the commit rename (written
// or copied data, and links of bytes not yet durable), and byte accounting
// for the Stats counters.
type Result struct {
	NeedSync    []string
	LinkedBytes int64
	CopiedBytes int64
}

// Cut is one instance's part of a checkpoint while it is being written:
// its segment files, flat in the checkpoint directory under the
// instance's prefix, and its sections of the CUT file. parent is the
// instance's files section in the previous generation, rooted at
// parentDir. Nothing a Cut writes is fsynced — Finish's Result names
// every segment that still needs a sync, and the composite store batches
// those into one group-commit window before the checkpoint's atomic
// rename.
type Cut struct {
	w         *Writer
	prefix    string
	parent    *Meta
	parentDir string
	meta      Meta
	res       Result
}

// Begin starts instance inst's cut in w's directory. parent is that
// instance's files section in the previous generation rooted at
// parentDir; nil means there is nothing to reuse and every file is
// written in full.
func (w *Writer) Begin(inst int, parent *Meta, parentDir string) *Cut {
	return &Cut{w: w, prefix: InstPrefix(inst), parent: parent, parentDir: parentDir}
}

// InstPrefix prefixes the names of instance inst's segment files and
// sections in a checkpoint.
func InstPrefix(inst int) string { return fmt.Sprintf("inst-%02d.", inst) }

// linkFile hard-links src into the cut as seg (copy fallback). A link is as
// durable as src, so it joins the sync window unless durable; a copy does.
func (c *Cut) linkFile(src string, seg Segment, durable bool) error {
	dst := filepath.Join(c.w.dir, seg.Name)
	linked, err := faultfs.LinkOrCopy(c.w.fsys, src, dst)
	if err != nil {
		return err
	}
	if linked {
		c.res.LinkedBytes += seg.Len
	} else {
		c.res.CopiedBytes += seg.Len
	}
	if !linked || !durable {
		c.res.NeedSync = append(c.res.NeedSync, dst)
	}
	return nil
}

// Link records the sealed live file at path, size bytes never to be
// written again, hard-linked: from the parent when it holds the whole file
// (Log then copies nothing), else from path, durable saying whether its
// bytes are on disk yet. crc is what its writer appended, not a read of
// the file, so rot already on disk fails the checkpoint's verification.
func (c *Cut) Link(logical string, epoch uint64, path string, size int64, crc uint32, durable bool) error {
	if p := c.parent.File(logical); p != nil && p.Epoch == epoch && p.TotalLen() == size {
		return c.Log(logical, epoch, path, size)
	}
	seg := Segment{Name: c.prefix + SegmentName(logical, 0), Len: size, CRC: crc}
	c.meta.Files = append(c.meta.Files, FileState{Logical: logical, Epoch: epoch, Segments: []Segment{seg}})
	return c.linkFile(path, seg, durable)
}

// Log records the live log file at path (size bytes, already flushed to
// its descriptor) under the logical name. When the parent still
// describes a prefix of the file — same epoch, recorded length not past
// the live size — the parent's segments are linked across and only the
// appended tail is copied; otherwise the file is copied whole as a
// single segment.
func (c *Cut) Log(logical string, epoch uint64, path string, size int64) error {
	fstate := FileState{Logical: logical, Epoch: epoch}
	var from int64
	// A parent with zero recorded bytes is not reused: its (empty)
	// segment list would put the fresh tail at offset 0 and collide with
	// any zero-offset segment name. An empty live file simply records no
	// segments — Materialize recreates it empty.
	if p := c.parent.File(logical); p != nil && p.Epoch == epoch &&
		p.TotalLen() > 0 && p.TotalLen() <= size {
		// The parent committed its segments, so their links are durable.
		for _, seg := range p.Segments {
			if err := c.linkFile(filepath.Join(c.parentDir, seg.Name), seg, true); err != nil {
				return err
			}
		}
		fstate.Segments = append(fstate.Segments, p.Segments...)
		from = p.TotalLen()
	}
	if tail := size - from; tail > 0 {
		name := c.prefix + SegmentName(logical, from)
		dst := filepath.Join(c.w.dir, name)
		crc, err := copyRange(c.w.fsys, path, from, tail, dst)
		if err != nil {
			return err
		}
		fstate.Segments = append(fstate.Segments, Segment{Name: name, Len: tail, CRC: crc})
		c.res.NeedSync = append(c.res.NeedSync, dst)
		c.res.CopiedBytes += tail
	}
	c.meta.Files = append(c.meta.Files, fstate)
	return nil
}

// Put writes frames, whole binio frames, as the instance's section kind of
// the CUT file; its bytes count as copied.
func (c *Cut) Put(kind string, frames []byte) error {
	return c.section(kind, func(write func([]byte)) error {
		write(frames)
		return nil
	})
}

// section writes the instance's section kind from fn, counting its bytes
// as copied.
func (c *Cut) section(kind string, fn func(write func([]byte)) error) error {
	return c.w.Stream(c.prefix+kind, func(write func([]byte)) error {
		return fn(func(p []byte) {
			write(p)
			c.res.CopiedBytes += int64(len(p))
		})
	})
}

// streamChunk is the size of a replay stream's chunks: Stream lays the
// records end to end and cuts the run into chunks of this many bytes, the
// last one shorter, so a record may span chunks. Replay inflates no chunk
// past it.
const streamChunk = 256 << 10

// streamBufs are Stream's buffers: the records not yet sealed, and the
// frame a chunk is deflated into.
type streamBufs struct{ raw, frame []byte }

// streamPool recycles Stream's buffers, so checkpoints allocate none in
// steady state.
var streamPool = sync.Pool{New: func() any { return new(streamBufs) }}

// Stream writes a replay stream as the instance's section kind: records
// that replay in order into the instance's state at the cut. The records,
// length-prefixed (binio.PutBytes), run end to end and are cut into
// chunks of streamChunk bytes; each chunk is one binio frame around its
// deflate stream (binio.Deflate), so a dump of small records pays for one
// checksum a chunk and holds what its records share only once. write
// emits the cut's records through emit; a section with no records is
// empty, and present. Replay is the reader.
func (c *Cut) Stream(kind string, write func(emit func(rec []byte)) error) error {
	return c.section(kind, func(out func([]byte)) error {
		bufs := streamPool.Get().(*streamBufs)
		defer streamPool.Put(bufs)
		seal := func(chunk []byte) {
			// A chunk is far below the cap, so Deflate cannot fail.
			frame, _ := binio.Deflate(slices.Grow(bufs.frame[:0], binio.FrameHeadroom)[:binio.FrameHeadroom], chunk)
			bufs.frame = frame
			out(binio.SealFrame(frame))
		}
		raw := bufs.raw[:0]
		err := write(func(rec []byte) {
			raw = binio.PutBytes(raw, rec)
			off := 0
			for ; len(raw)-off >= streamChunk; off += streamChunk {
				seal(raw[off : off+streamChunk])
			}
			raw = raw[:copy(raw, raw[off:])]
		})
		if err == nil && len(raw) > 0 {
			seal(raw)
		}
		bufs.raw = raw[:0]
		return err
	})
}

// Finish writes the instance's files section — every logical file it
// recorded, as segment lists — and returns the cut's Result. Describing
// data rather than being it, the section stays out of the copied-byte
// accounting.
func (c *Cut) Finish() (*Result, error) {
	if err := c.w.Put(c.prefix+KindFiles, c.meta.Encode()); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// copyRange copies src's bytes [off, off+n) into a fresh file at dst in
// 256 KiB reads and writes, returning the CRC32C of the written bytes.
func copyRange(fsys faultfs.FS, src string, off, n int64, dst string) (uint32, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return 0, err
	}
	var crc crcWriter
	copied, err := io.CopyBuffer(io.MultiWriter(out, &crc), io.NewSectionReader(in, off, n), make([]byte, 256<<10))
	if err == nil && copied != n {
		err = io.ErrUnexpectedEOF
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return uint32(crc), err
}

// crcWriter accumulates the CRC32C of what is written to it.
type crcWriter uint32

func (c *crcWriter) Write(p []byte) (int, error) {
	*c = crcWriter(binio.ChecksumUpdate(uint32(*c), p))
	return len(p), nil
}

// SegmentName names the segment of a logical file starting at offset
// off. Offsets are zero-padded so lexical order is offset order.
func SegmentName(logical string, off int64) string {
	return fmt.Sprintf("%s.seg-%012d", logical, off)
}

// Materialize concatenates a logical file's segments from dir into a
// fresh file at dst, verifying each segment's recorded length. The
// result is not fsynced: it becomes a live log whose durability the
// store's own sync discipline governs.
func Materialize(fsys faultfs.FS, dir string, fstate *FileState, dst string) error {
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	for _, seg := range fstate.Segments {
		in, err := fsys.Open(filepath.Join(dir, seg.Name))
		if err != nil {
			out.Close()
			return err
		}
		n, err := io.Copy(out, in)
		in.Close()
		if err != nil {
			out.Close()
			return err
		}
		if n != seg.Len {
			out.Close()
			return fmt.Errorf("%w: segment %s is %d bytes, the files section says %d",
				ErrBadMeta, seg.Name, n, seg.Len)
		}
	}
	return out.Close()
}
