package core

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/faultfs"
)

// Checkpoint export: the file-level transfer primitive behind the SPE's
// live key-range migration. A committed checkpoint directory is immutable
// and self-contained, so "shipping" it to another worker's staging area
// is a manifest walk: every file the MANIFEST names is hard-linked into
// the destination (copy fallback when the filesystem refuses links, e.g.
// across devices), copies are fsynced, and the MANIFEST itself is written
// last — its presence marks the clone complete, and the clone then passes
// VerifyCheckpointDir exactly like the original. Sealed segments dominate
// a checkpoint's bytes and always arrive as links, so the transfer cost
// tracks the file count, not the state size.

// CloneResult reports what a CloneCheckpointDir moved.
type CloneResult struct {
	// LinkedBytes is the manifest-recorded size of files that arrived as
	// hard links (no bytes copied, already durable).
	LinkedBytes int64
	// CopiedBytes is the size of files the filesystem refused to link.
	CopiedBytes int64
	// Files is the number of manifest entries cloned (MANIFEST excluded).
	Files int
}

// CloneCheckpointDir clones the checkpoint at src into dst through its
// MANIFEST: link-or-copy each listed file, fsync the copies, then write
// the manifest. Any existing dst is removed first. The source is not
// verified here — callers verify the staged clone (VerifyCheckpointDir),
// which checks the same CRCs and doubles as a destination-media probe.
// A nil fsys uses the real filesystem.
func CloneCheckpointDir(fsys faultfs.FS, src, dst string) (CloneResult, error) {
	var res CloneResult
	if fsys == nil {
		fsys = faultfs.OS
	}
	mb, err := fsys.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		return res, &CheckpointError{Dir: src, Reason: "missing or unreadable MANIFEST", Err: err}
	}
	m, err := parseManifest(src, mb)
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
	dirs := map[string]bool{dst: true}
	for _, e := range m.entries {
		sp := filepath.Join(src, filepath.FromSlash(e.path))
		dp := filepath.Join(dst, filepath.FromSlash(e.path))
		dd := filepath.Dir(dp)
		if !dirs[dd] {
			if err := fsys.MkdirAll(dd, 0o755); err != nil {
				return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
			}
			dirs[dd] = true
		}
		linked, err := faultfs.LinkOrCopy(fsys, sp, dp)
		if err != nil {
			return res, fmt.Errorf("flowkv: clone checkpoint %s: %w", e.path, err)
		}
		if linked {
			res.LinkedBytes += e.size
		} else {
			res.CopiedBytes += e.size
			needSync = append(needSync, dp)
		}
		res.Files++
	}
	if err := syncFiles(fsys, needSync); err != nil {
		return res, err
	}
	for d := range dirs {
		if err := fsys.SyncDir(d); err != nil {
			return res, fmt.Errorf("flowkv: clone checkpoint: sync dir: %w", err)
		}
	}
	// Manifest last: an interrupted clone leaves a directory that fails
	// VerifyCheckpointDir instead of masquerading as complete.
	f, err := fsys.Create(filepath.Join(dst, manifestName))
	if err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	if _, err := f.Write(mb); err != nil {
		f.Close()
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dst); err != nil {
		return res, fmt.Errorf("flowkv: clone checkpoint: %w", err)
	}
	return res, nil
}
