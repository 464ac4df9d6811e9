package core

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// Checkpoint export: the file-level transfer primitive behind the SPE's
// live key-range migration. A committed checkpoint directory is immutable
// and self-contained, so "shipping" it to another worker's staging area
// is a walk of its CUT: every segment file the files sections name is
// hard-linked into the destination (copy fallback when the filesystem
// refuses links, e.g. across devices), copies are fsynced, and the CUT
// itself is written last — its presence marks the clone complete, and the
// clone then passes VerifyCheckpointDir exactly like the original. Sealed
// segments dominate a checkpoint's bytes and always arrive as links, so
// the transfer cost tracks the file count, not the state size.

// CloneResult reports what a CloneCheckpointDir moved.
type CloneResult struct {
	// LinkedBytes is the recorded size of segment files that arrived as
	// hard links (no bytes copied, already durable).
	LinkedBytes int64
	// CopiedBytes is the size of segment files the filesystem refused to
	// link.
	CopiedBytes int64
	// Files is the number of segment files cloned (CUT excluded).
	Files int
}

// CloneCheckpointDir clones the checkpoint at src into dst through its
// CUT: link-or-copy each segment file, fsync the copies and the
// directory, then write the CUT. Any existing dst is removed first. The
// segments are not verified here — callers verify the staged clone
// (VerifyCheckpointDir), which checks the same CRCs and doubles as a
// destination-media probe. A nil fsys uses the real filesystem.
func CloneCheckpointDir(fsys faultfs.FS, src, dst string) (CloneResult, error) {
	var res CloneResult
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(src, ckpt.CutName))
	if err != nil {
		return res, &CheckpointError{Dir: src, Reason: "missing or unreadable CUT", Err: err}
	}
	c, err := parseCut(src, b)
	if err != nil {
		return res, err
	}
	if err := fsys.RemoveAll(dst); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: clear destination: %w", err)
	}
	if err := fsys.MkdirAll(dst, 0o755); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	var needSync []string
	for _, m := range c.Files {
		for _, f := range m.Files {
			for _, seg := range f.Segments {
				dp := filepath.Join(dst, seg.Name)
				linked, err := faultfs.LinkOrCopy(fsys, filepath.Join(src, seg.Name), dp)
				if err != nil {
					return res, fmt.Errorf("flowkv: clone checkpoint %s: %w", seg.Name, err)
				}
				if linked {
					res.LinkedBytes += seg.Len
				} else {
					res.CopiedBytes += seg.Len
					needSync = append(needSync, dp)
				}
				res.Files++
			}
		}
	}
	if err := syncFiles(fsys, needSync); err != nil {
		return res, err
	}
	if err := fsys.SyncDir(dst); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: sync dir: %w", err)
	}
	// CUT last: an interrupted clone leaves a directory that fails
	// VerifyCheckpointDir instead of masquerading as complete.
	if err := faultfs.WriteFileAtomic(fsys, filepath.Join(dst, ckpt.CutName), b); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	return res, nil
}
