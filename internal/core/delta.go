package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// CheckpointDelta writes a checkpoint of the composite store into dir,
// against the checkpoint at parent. Every instance seals its open logs and
// hard-links each file its state lives in (copy fallback when the
// filesystem refuses links): from parent when it holds the same file, as
// those bytes are committed and need no sync, else from the live
// directory. Only the CUT's sections are written. parent is resolved
// fail-safe — a missing, corrupt, quarantined or foreign parent, or a
// negative Options.MaxDeltaChain, links every file from the live
// directory instead, never making a corrupt checkpoint. An empty parent
// does the same; Checkpoint and CheckpointWithMeta are exactly that.
//
// The checkpoint is crash-consistent. Everything is first written into
// "<dir>.tmp", flat: the instances' files and one CUT file holding
// every instance's files, liveness and dump sections and the application
// metadata, with a table of their CRC32Cs. The files and the directory are
// fsynced; only then is the temporary directory atomically renamed onto
// dir and the parent directory fsynced. The previous checkpoint is never
// deleted before the commit: it is renamed aside to "<dir>.old" (deleting
// it file-by-file would open a window where a crash leaves only a partial
// — though still CUT-rejected — directory at dir), and renamed back when
// the commit rename fails or when the next CheckpointDelta finds it there
// with dir missing. So at every instant a complete snapshot exists at
// dir, "<dir>.old", or "<dir>.tmp", and a crash leaves at worst stale
// ".tmp"/".old" directories that the next checkpoint clears or restores.
// If any step fails, the temporary directory is removed so no partial
// state lingers.
//
// Durability is group-committed: instances link their files and report
// what needs durability; the store fsyncs those and the CUT in one batched
// window (fanned across Options.Parallelism workers), so a barrier pays
// one sync wave instead of one fsync per file per instance.
// Options.DisableGroupCommit reverts to fsyncing each instance's files as
// soon as it is cut, for ablation. Files linked from a parent checkpoint
// are already durable and are never re-synced; a link of a live file whose
// bytes are not yet on disk (a log sealed since the last sync, as every
// log the cut itself sealed is) is in the window like a copy.
//
// meta is the opaque application metadata (see CheckpointWithMeta). The
// resulting directory is physically self-contained: restoring it never
// reads the parent, which may be deleted freely (links keep shared
// inodes alive).
func (s *Store) CheckpointDelta(dir, parent string, meta []byte) error {
	if err := s.guardWrite(); err != nil {
		return err
	}
	fsys := s.opts.FS
	tmp := dir + stagingSuffix
	old := dir + ".old"
	// A previous commit that moved dir aside and then failed (or crashed)
	// left the only complete snapshot at old: put it back before clearing.
	if _, err := fsys.ReadDir(dir); errors.Is(err, fs.ErrNotExist) {
		if err := fsys.Rename(old, dir); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("flowkv: checkpoint: restore previous: %w", err)
		}
	}
	parentMetas := s.parentFiles(parent)
	if parentMetas == nil {
		parent = ""
	}
	if err := fsys.RemoveAll(tmp); err != nil {
		return fmt.Errorf("flowkv: checkpoint: clear stale tmp: %w", err)
	}
	if err := fsys.RemoveAll(old); err != nil {
		return fmt.Errorf("flowkv: checkpoint: clear stale old: %w", err)
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("flowkv: checkpoint: %w", err)
	}
	h := ckpt.Header{Pattern: int(s.pattern), Instances: s.opts.Instances}
	results, err := s.checkpointDeltaInto(tmp, parent, h, parentMetas, meta)
	if err != nil {
		// Best-effort cleanup: after a simulated (or real) crash the
		// removal itself can fail, which the next checkpoint handles.
		fsys.RemoveAll(tmp)
		// The per-instance snapshot flushes the live logs; if that is
		// what failed the logs are now poisoned and the store degrades
		// until Recover re-establishes the durable-offset invariant. A
		// failure confined to the staging directory (the common case:
		// the live logs are untouched) leaves the store Healthy.
		if perr := s.poisoned(); perr != nil {
			s.degrade(perr)
		}
		return err
	}
	// Commit: move the previous checkpoint aside (atomic, keeps it
	// whole for fallback), then rename the complete snapshot onto dir.
	if err := fsys.Rename(dir, old); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fsys.RemoveAll(tmp)
		return fmt.Errorf("flowkv: checkpoint: move previous aside: %w", err)
	}
	if err := fsys.Rename(tmp, dir); err != nil {
		fsys.RemoveAll(tmp)
		// Best-effort, like the cleanup: what stays at old the next
		// checkpoint puts back.
		fsys.Rename(old, dir)
		return fmt.Errorf("flowkv: checkpoint: commit: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
		return fmt.Errorf("flowkv: checkpoint: sync parent: %w", err)
	}
	// The checkpoint is committed: account its bytes.
	for _, res := range results {
		s.ckptLinkedBytes.Add(res.LinkedBytes)
		s.ckptCopiedBytes.Add(res.CopiedBytes)
	}
	if err := fsys.RemoveAll(old); err != nil {
		return fmt.Errorf("flowkv: checkpoint: clear previous: %w", err)
	}
	return nil
}

// parentFiles returns each instance's files section in the checkpoint at
// parent, the files a new cut may link from there. nil — no parent, a
// missing, corrupt, quarantined or foreign one, or a negative
// Options.MaxDeltaChain — links every file from the live directory: an
// unreadable parent may cost the commit fsyncs, never correctness.
func (s *Store) parentFiles(parent string) []*ckpt.Meta {
	if parent == "" || s.opts.MaxDeltaChain < 0 {
		return nil
	}
	c, err := readCut(s.opts.FS, parent, s.pattern, s.opts.Instances)
	if err != nil {
		return nil
	}
	return c.Files
}

// checkpointDeltaInto stages the snapshot in tmp: the instances' files
// and sections, the application metadata, the CUT's table, then one
// group-commit sync window over every file still to sync and the CUT, and
// the directory. Instances snapshot in parallel (bounded by
// Options.Parallelism), each holding only its own I/O lock, so ingestion
// proceeds while the snapshot is written. The cut is per-instance — the
// instant each instance detaches its buffer — which is consistent per key
// because one instance owns all of a key's state.
func (s *Store) checkpointDeltaInto(tmp, parent string, h ckpt.Header, parentMetas []*ckpt.Meta, meta []byte) ([]*ckpt.Result, error) {
	fsys := s.opts.FS
	w, err := ckpt.Create(fsys, tmp, h)
	if err != nil {
		return nil, fmt.Errorf("flowkv: checkpoint: %w", err)
	}
	defer w.Close()
	results := make([]*ckpt.Result, s.opts.Instances)
	if err := s.eachInstance(func(i int) error {
		var pm *ckpt.Meta
		if parentMetas != nil {
			pm = parentMetas[i]
		}
		res, err := s.insts[i].CheckpointDelta(w.Begin(i, pm, parent))
		if err != nil {
			return err
		}
		results[i] = res
		if s.opts.DisableGroupCommit {
			return syncFiles(fsys, res.NeedSync)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if meta != nil {
		z, err := binio.Deflate(nil, meta)
		if err == nil {
			err = w.Put(ckpt.AppMeta, binio.AppendRecord(nil, z))
		}
		if err != nil {
			return nil, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("flowkv: checkpoint: %w", err)
	}
	// Group commit: one batched sync window for the CUT and every file all
	// instances linked undurable or copied this barrier, fanned across the
	// same worker budget as the instance snapshots.
	all := []string{w.Path()}
	if !s.opts.DisableGroupCommit {
		for _, res := range results {
			all = append(all, res.NeedSync...)
		}
	}
	if err := s.syncWindow(all); err != nil {
		return nil, err
	}
	// Directory entries last: the files are durable, now make their
	// names durable too.
	if err := fsys.SyncDir(tmp); err != nil {
		return nil, fmt.Errorf("flowkv: checkpoint: sync dir: %w", err)
	}
	return results, nil
}

// syncWindow fsyncs every path, fanning across Options.Parallelism
// workers. It is the group-commit window: called once per barrier with
// the CUT and the union of every instance's unsynced files.
func (s *Store) syncWindow(paths []string) error {
	return s.fanOut(len(paths), func(i int) error { return syncFiles(s.opts.FS, paths[i:i+1]) })
}

// syncFiles fsyncs each named file in order.
func syncFiles(fsys faultfs.FS, paths []string) error {
	for _, p := range paths {
		f, err := fsys.OpenFile(p, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("flowkv: checkpoint: sync %s: %w", p, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("flowkv: checkpoint: sync %s: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("flowkv: checkpoint: sync %s: %w", p, err)
		}
	}
	return nil
}
