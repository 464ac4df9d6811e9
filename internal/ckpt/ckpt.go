// Package ckpt holds the checkpoint machinery shared by the three store
// patterns. A checkpoint directory is one CUT file plus, flat beside it, one
// file for every store file an instance's files section names, under the
// instance's prefix (FileName). Paper §8 has a snapshot be the store's own
// files once in-memory data is flushed: a store seals its open logs at a cut,
// so every file a checkpoint names is whole and never written again, and each
// is hard-linked — from the parent checkpoint when that holds the same file,
// else from the live directory — and copied only where the filesystem
// refuses links. No cut copies store data. A files section records per file
// its logical name, a file epoch telling the live file from another of its
// name, its length and its CRC32C, so a later cut can link from it and a
// restore can link each file back. Every checkpoint directory stays
// physically self-contained: links keep the shared inodes alive after the
// parent is deleted.
package ckpt

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// metaMagic versions the files section's encoding; its header record is
// the magic alone. v3 describes each file as one whole file.
const metaMagic = "flowkv-segments-v3"

// ErrBadMeta reports an undecodable or inconsistent files section.
var ErrBadMeta = errors.New("ckpt: invalid files section")

// FileState describes one store file a checkpoint holds whole.
type FileState struct {
	// Logical is the live file's name.
	Logical string
	// Epoch identifies the live file instance: a cut links a file from its
	// parent only while the live file's epoch still matches the parent's
	// recorded one, so a file dropped and recreated under its name, or
	// created by a store reopened without a restore, is never mistaken for
	// the parent's.
	Epoch uint64
	// Len is the file's exact byte length, CRC the CRC32C of its bytes.
	Len int64
	CRC uint32
}

// FileName is the name of instance inst's file logical in a checkpoint
// directory.
func FileName(inst int, logical string) string { return InstPrefix(inst) + logical }

// Meta is the decoded files section of one instance in a checkpoint.
type Meta struct {
	// Files lists every file, in the order the cut recorded them; no
	// logical name appears twice.
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

// Encode serializes the meta: a header record then one record per file,
// CRC-framed through binio.
func (m *Meta) Encode() []byte {
	var buf, payload []byte
	buf = binio.AppendRecord(buf, binio.PutString(nil, metaMagic))
	for _, f := range m.Files {
		payload = binio.PutString(payload[:0], f.Logical)
		payload = binio.PutUvarint(payload, f.Epoch)
		payload = binio.PutUvarint(payload, uint64(f.Len))
		payload = binio.PutUint32(payload, f.CRC)
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// DecodeMeta parses a files section. It never panics, whatever the
// input; malformed bytes — and a section naming one logical file twice,
// which the encoder never writes and File could not tell apart — yield
// ErrBadMeta, wrapping the frame's error (a *binio.FrameError for a
// corrupt frame) when a record fails to read.
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
	seen := make(map[string]bool)
	for len(b) > 0 {
		if !next() {
			return bad("corrupt file record")
		}
		f := FileState{Logical: str(), Epoch: uvarint(), Len: int64(uvarint())}
		crc, err := binio.Uint32(rec)
		if !ok || err != nil || len(rec) != 4 || f.Len < 0 {
			return bad("truncated file record")
		}
		if seen[f.Logical] {
			return bad(fmt.Sprintf("file %q named twice", f.Logical))
		}
		seen[f.Logical] = true
		f.CRC = crc
		m.Files = append(m.Files, f)
	}
	return m, nil
}

// Result is what an instance's cut hands back to the composite store: the
// files that still need an fsync before the commit rename (copies, and
// links of bytes not yet durable), and byte accounting for the Stats
// counters: the files linked or copied, and the CUT sections the cut
// wrote, which count as copied.
type Result struct {
	NeedSync    []string
	LinkedBytes int64
	CopiedBytes int64
}

// Cut is one instance's part of a checkpoint while it is being written:
// its files, flat in the checkpoint directory under the instance's prefix,
// and its sections of the CUT file. parent is the instance's files section
// in the previous generation, rooted at parentDir. Nothing a Cut writes is
// fsynced — Finish's Result names every file that still needs a sync, and
// the composite store batches those into one group-commit window before
// the checkpoint's atomic rename.
type Cut struct {
	w         *Writer
	inst      int
	parent    *Meta
	parentDir string
	meta      Meta
	res       Result
}

// Begin starts instance inst's cut in w's directory. parent is that
// instance's files section in the previous generation rooted at
// parentDir; nil means there is nothing to link from but the live
// directory.
func (w *Writer) Begin(inst int, parent *Meta, parentDir string) *Cut {
	return &Cut{w: w, inst: inst, parent: parent, parentDir: parentDir}
}

// InstPrefix prefixes the names of instance inst's files and sections in
// a checkpoint.
func InstPrefix(inst int) string { return fmt.Sprintf("inst-%02d.", inst) }

// Link records the sealed live file at path, size bytes never to be
// written again, hard-linked (copy fallback): from the parent when it
// holds the same file — same epoch, length and CRC — as a link of
// committed bytes is durable, else from path, durable saying whether its
// bytes are on disk yet. crc is what its writer appended, not a read of
// the file, so rot already on disk fails the checkpoint's verification. A
// link is as durable as its source, so it joins the sync window unless
// durable; a copy always does.
func (c *Cut) Link(logical string, epoch uint64, path string, size int64, crc uint32, durable bool) error {
	f := FileState{Logical: logical, Epoch: epoch, Len: size, CRC: crc}
	name := FileName(c.inst, logical)
	if p := c.parent.File(logical); p != nil && *p == f {
		path, durable = filepath.Join(c.parentDir, name), true
	}
	dst := filepath.Join(c.w.dir, name)
	linked, err := faultfs.LinkOrCopy(c.w.fsys, path, dst)
	if err != nil {
		return err
	}
	if linked {
		c.res.LinkedBytes += size
	} else {
		c.res.CopiedBytes += size
	}
	if !linked || !durable {
		c.res.NeedSync = append(c.res.NeedSync, dst)
	}
	c.meta.Files = append(c.meta.Files, f)
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
	return c.w.Stream(InstPrefix(c.inst)+kind, func(write func([]byte)) error {
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

// Finish writes the instance's files section — every file it linked —
// and returns the cut's Result. Describing data rather than being it, the
// section stays out of the copied-byte accounting.
func (c *Cut) Finish() (*Result, error) {
	if err := c.w.Put(InstPrefix(c.inst)+KindFiles, c.meta.Encode()); err != nil {
		return nil, err
	}
	return &c.res, nil
}
