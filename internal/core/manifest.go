package core

import (
	"errors"
	"fmt"
	"path"
	"path/filepath"
	"sort"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// manifestName is the file committing a checkpoint directory: a checkpoint
// without a valid MANIFEST is not a checkpoint.
const manifestName = "MANIFEST"

// manifestMagic identifies the manifest format: a header recording the
// pattern, the instance count, the parent generation's base name ("" for a
// chain base) and the chain depth.
const manifestMagic = "flowkv-checkpoint-v2"

// ErrCheckpointInvalid is the sentinel matched (via errors.Is) by every
// rejection of a partial, corrupted, or mismatched checkpoint directory.
var ErrCheckpointInvalid = errors.New("flowkv: invalid checkpoint")

// CheckpointError reports why a checkpoint directory was rejected. It
// matches ErrCheckpointInvalid so callers can branch on the class while
// logging the specifics, and unwraps to the underlying failure, if any.
type CheckpointError struct {
	// Dir is the checkpoint directory that was rejected.
	Dir string
	// File is the offending file relative to Dir, empty for
	// directory-level problems (missing or unreadable manifest).
	File string
	// Reason describes the failed check.
	Reason string
	// Err is the failure underneath the check, when there is one: a
	// *binio.FrameError for a MANIFEST record that fails verification.
	Err error
}

// Error formats the rejection.
func (e *CheckpointError) Error() string {
	msg := "flowkv: invalid checkpoint " + e.Dir
	if e.File != "" {
		msg += ": file " + e.File
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrCheckpointInvalid) hold.
func (e *CheckpointError) Is(target error) bool { return target == ErrCheckpointInvalid }

// Unwrap returns the underlying failure, nil if there is none.
func (e *CheckpointError) Unwrap() error { return e.Err }

// manifestEntry records one checkpointed file: its slash-separated path
// relative to the checkpoint root, its exact size, and the CRC32C of its
// contents.
type manifestEntry struct {
	path string
	size int64
	crc  uint32
}

// manifest is the decoded MANIFEST of a checkpoint directory.
type manifest struct {
	pattern   Pattern
	instances int
	// parent is the base name of the sibling checkpoint directory this
	// incremental checkpoint was diffed against, "" for a full (chain
	// base) checkpoint. Every checkpoint directory is physically
	// self-contained — reused segments are hard-linked in, so restore
	// never touches the parent — but the reference drives chain display,
	// retention-GC refcounting, and chain verification.
	parent string
	// depth is the incremental chain length: 0 for a base, parent's
	// depth + 1 otherwise. Stored rather than derived so the chain cap
	// needs no walking (ancestors may already be garbage-collected).
	depth   int
	entries []manifestEntry
}

// snapshotDir walks root through fsys and returns one entry per regular
// file (the manifest itself excluded), sorted by path.
func snapshotDir(fsys faultfs.FS, root string) ([]manifestEntry, error) {
	var out []manifestEntry
	var walk func(dir, rel string) error
	walk = func(dir, rel string) error {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			relName := path.Join(rel, e.Name())
			if e.IsDir() {
				if err := walk(filepath.Join(dir, e.Name()), relName); err != nil {
					return err
				}
				continue
			}
			if relName == manifestName {
				continue
			}
			b, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			out = append(out, manifestEntry{path: relName, size: int64(len(b)), crc: binio.Checksum(b)})
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// encodeManifest serializes a manifest: a header record (magic, pattern,
// instance count, parent name, chain depth) followed by one record per
// file, all CRC-framed through binio.
func encodeManifest(m *manifest) []byte {
	var buf, payload []byte
	payload = binio.PutString(payload[:0], manifestMagic)
	payload = binio.PutUvarint(payload, uint64(m.pattern))
	payload = binio.PutUvarint(payload, uint64(m.instances))
	payload = binio.PutString(payload, m.parent)
	payload = binio.PutUvarint(payload, uint64(m.depth))
	buf = binio.AppendRecord(buf, payload)
	for _, e := range m.entries {
		payload = binio.PutString(payload[:0], e.path)
		payload = binio.PutUvarint(payload, uint64(e.size))
		payload = binio.PutUint32(payload, e.crc)
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// parseManifest decodes dir's serialized manifest. On rejection it returns
// a *CheckpointError naming the MANIFEST, wrapping the frame's error when a
// record fails verification; it never panics, whatever the input (fuzzed
// by FuzzParseManifest).
func parseManifest(dir string, b []byte) (*manifest, error) {
	bad := func(reason string, err error) (*manifest, error) {
		return nil, &CheckpointError{Dir: dir, File: manifestName, Reason: reason, Err: err}
	}
	header, n, err := binio.ReadRecord(b)
	if err != nil {
		return bad("corrupt header", err)
	}
	b = b[n:]
	magic, hn, err := binio.String(header)
	if err != nil || magic != manifestMagic {
		return bad("bad magic", nil)
	}
	header = header[hn:]
	pat, hn, err := binio.Uvarint(header)
	if err != nil {
		return bad("truncated header", nil)
	}
	header = header[hn:]
	inst, hn, err := binio.Uvarint(header)
	if err != nil {
		return bad("truncated header", nil)
	}
	header = header[hn:]
	parent, pn, err := binio.String(header)
	if err != nil {
		return bad("truncated header", nil)
	}
	header = header[pn:]
	depth, _, err := binio.Uvarint(header)
	if err != nil {
		return bad("truncated header", nil)
	}
	// A parent reference is a sibling directory's base name; path
	// separators or traversal would let a crafted manifest point the chain
	// walk (GC refcounting, flowkvctl display) outside the checkpoint
	// parent directory.
	if parent != filepath.Base(parent) && parent != "" {
		return bad("parent is not a sibling name", nil)
	}
	if parent == "." || parent == ".." {
		return bad("parent is not a sibling name", nil)
	}
	m := &manifest{pattern: Pattern(pat), instances: int(inst), parent: parent, depth: int(depth)}
	for len(b) > 0 {
		rec, n, err := binio.ReadRecord(b)
		if err != nil {
			return bad("corrupt entry", err)
		}
		b = b[n:]
		name, fn, err := binio.String(rec)
		if err != nil {
			return bad("truncated entry", nil)
		}
		rec = rec[fn:]
		size, fn, err := binio.Uvarint(rec)
		if err != nil {
			return bad("truncated entry", nil)
		}
		rec = rec[fn:]
		crc, err := binio.Uint32(rec)
		if err != nil {
			return bad("truncated entry", nil)
		}
		m.entries = append(m.entries, manifestEntry{path: name, size: int64(size), crc: crc})
	}
	return m, nil
}

// loadManifest reads and parses dir's MANIFEST.
func loadManifest(fsys faultfs.FS, dir string) (*manifest, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, &CheckpointError{Dir: dir, Reason: "missing or unreadable MANIFEST", Err: err}
	}
	return parseManifest(dir, b)
}

// writeManifestEncoded writes a fully-specified manifest — entries
// precomputed by the caller, not re-read from disk: re-hashing the
// directory would re-read every hard-linked segment and put the
// O(total-state) cost back into every commit. The manifest file and the
// directory entry are fsynced, so on return the checkpoint contents are
// fully described and durable — ready for the atomic rename commit.
func writeManifestEncoded(fsys faultfs.FS, dir string, m *manifest) error {
	buf := encodeManifest(m)
	f, err := fsys.Create(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("flowkv: manifest: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("flowkv: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("flowkv: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flowkv: manifest: %w", err)
	}
	return fsys.SyncDir(dir)
}

// readManifest parses dir's MANIFEST, validating the magic and that the
// checkpoint was taken with the same pattern and instance count. A
// quarantined directory is rejected before its manifest is even read:
// every consumer routed through here — Restore, delta-parent resolution
// — therefore refuses quarantined checkpoints without further checks.
func readManifest(fsys faultfs.FS, dir string, p Pattern, instances int) (*manifest, error) {
	if reason, ok := QuarantineReason(fsys, dir); ok {
		return nil, &CheckpointError{Dir: dir, Reason: "quarantined: " + reason}
	}
	m, err := loadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if m.pattern != p || m.instances != instances {
		return nil, &CheckpointError{Dir: dir, File: manifestName, Reason: fmt.Sprintf("checkpoint is %v/%d instances, store is %v/%d",
			m.pattern, m.instances, p, instances)}
	}
	return m, nil
}

// verifyCheckpoint rejects dir unless its current contents match its
// MANIFEST exactly: every listed file present with the recorded size and
// CRC32C, and no unlisted files. Any deviation — a truncated copy, a
// bit-flip, a file from a half-finished later attempt — yields a
// CheckpointError rather than a silently partial restore.
func verifyCheckpoint(fsys faultfs.FS, dir string, p Pattern, instances int) error {
	m, err := readManifest(fsys, dir, p, instances)
	if err != nil {
		return err
	}
	return verifyContents(fsys, dir, m)
}

// verifyContents checks dir against its decoded manifest m: every
// instance directory carries a SEGMENTS file, every listed file is
// present with the recorded size and CRC32C, and no unlisted files exist.
func verifyContents(fsys faultfs.FS, dir string, m *manifest) error {
	want := m.entries
	// An instance directory without SEGMENTS cannot be reassembled, and
	// restoring it as "no state" would silently drop everything the
	// instance held. (Checked in entry space first: a crafted instance
	// count must not drive the loop.)
	if m.instances > len(want) {
		return &CheckpointError{Dir: dir, File: manifestName,
			Reason: fmt.Sprintf("%d instances but only %d files", m.instances, len(want))}
	}
	listed := make(map[string]bool, len(want))
	for _, w := range want {
		listed[w.path] = true
	}
	for i := 0; i < m.instances; i++ {
		if p := path.Join(instName(i), ckpt.MetaName); !listed[p] {
			return &CheckpointError{Dir: dir, File: p, Reason: "instance has no SEGMENTS file"}
		}
	}
	got, err := snapshotDir(fsys, dir)
	if err != nil {
		return &CheckpointError{Dir: dir, Reason: fmt.Sprintf("unreadable contents: %v", err)}
	}
	byPath := make(map[string]manifestEntry, len(got))
	for _, e := range got {
		byPath[e.path] = e
	}
	for _, w := range want {
		g, ok := byPath[w.path]
		if !ok {
			return &CheckpointError{Dir: dir, File: w.path, Reason: "listed in MANIFEST but missing"}
		}
		if g.size != w.size {
			return &CheckpointError{Dir: dir, File: w.path,
				Reason: fmt.Sprintf("size %d, manifest says %d", g.size, w.size)}
		}
		if g.crc != w.crc {
			// Name the exact damage: expected vs observed checksum, and
			// for frame-structured files the offset of the first frame
			// that no longer verifies.
			reason := fmt.Sprintf("checksum mismatch: manifest %08x, file %08x", w.crc, g.crc)
			if b, rerr := fsys.ReadFile(filepath.Join(dir, filepath.FromSlash(w.path))); rerr == nil {
				if off := firstCorruptFrame(b); off >= 0 {
					reason += fmt.Sprintf(", first corrupt frame at offset %d", off)
				}
			}
			return &CheckpointError{Dir: dir, File: w.path, Reason: reason}
		}
		delete(byPath, w.path)
	}
	for p := range byPath {
		return &CheckpointError{Dir: dir, File: p, Reason: "not listed in MANIFEST"}
	}
	return nil
}
