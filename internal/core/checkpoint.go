package core

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// Checkpoint writes a consistent snapshot of the composite store into
// dir: one CUT file and the instances' segment files. Per the paper's §8 discussion, SPEs
// snapshot their KV stores periodically (Flink's checkpointing): buffers
// are flushed so on-disk state is authoritative, and the snapshot can
// then be shipped to reliable storage while processing resumes. Windows
// consumed (fetched & removed) before the checkpoint stay consumed after
// a restore. It is CheckpointDelta with no parent and no metadata — a
// self-contained chain base — and shares its crash-consistency protocol.
func (s *Store) Checkpoint(dir string) error {
	return s.CheckpointDelta(dir, "", nil)
}

// CheckpointWithMeta is Checkpoint carrying opaque application metadata:
// meta is written, deflated, as the appmeta section of the snapshot's CUT,
// so it is covered by the same CRC32C verification as the store's
// sections and committed by the same atomic rename. The SPE layer uses it
// to record source offsets, watermarks, and operator state alongside the
// store cut, which is what makes a checkpoint a resumable point rather
// than just a backup. A nil meta writes no appmeta section.
func (s *Store) CheckpointWithMeta(dir string, meta []byte) error {
	return s.CheckpointDelta(dir, "", meta)
}

// ReadCheckpointMeta returns the application metadata stored in a
// checkpoint directory by CheckpointWithMeta, or nil if the checkpoint
// carries none. It checks the CUT's frames, not the segment files —
// callers that need integrity use RestoreWithMeta or VerifyCheckpointDir
// first — and appmeta that does not inflate (rot the CRC missed) is a
// *binio.FrameError. A nil fsys uses the real filesystem.
func ReadCheckpointMeta(fsys faultfs.FS, dir string) ([]byte, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	c, err := loadCut(fsys, dir)
	if err != nil {
		return nil, err
	}
	return appMeta(c)
}

// appMeta inflates c's appmeta section, nil when it has none.
func appMeta(c *ckpt.CutFile) ([]byte, error) {
	z, ok, err := c.Record(ckpt.AppMeta)
	if err == nil && ok {
		var meta []byte
		if meta, err = binio.Inflate(nil, z); err == nil {
			return meta, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("flowkv: read checkpoint meta: %w", err)
	}
	return nil, nil
}

// Restore rebuilds a freshly-opened store from a checkpoint directory
// written by Checkpoint or CheckpointDelta with the same pattern and
// instance count. Key routing is deterministic, so each restored instance
// again owns exactly the keys whose state it holds.
//
// Before any instance state is loaded, the checkpoint is verified against
// its CUT; a partial, truncated, or bit-flipped snapshot is rejected with
// a CheckpointError (errors.Is ErrCheckpointInvalid) and the store is left
// untouched, so the caller can fall back to an older checkpoint.
func (s *Store) Restore(dir string) error {
	_, err := s.RestoreWithMeta(dir)
	return err
}

// RestoreWithMeta is Restore returning the application metadata the
// checkpoint was taken with (nil for checkpoints written without any).
// The metadata is inflated only after the verification passes, so a
// non-nil return is exactly the bytes given to CheckpointWithMeta.
func (s *Store) RestoreWithMeta(dir string) ([]byte, error) {
	if len(s.insts) != s.opts.Instances {
		return nil, fmt.Errorf("flowkv: restore: store not fully open")
	}
	c, err := readCut(s.opts.FS, dir, s.pattern, s.opts.Instances)
	if err != nil {
		return nil, err
	}
	if err := verifyContents(s.opts.FS, dir, c); err != nil {
		return nil, err
	}
	meta, err := appMeta(c)
	if err != nil {
		return nil, err
	}
	for i, inst := range s.insts {
		if err := inst.Restore(c.Source(dir, i)); err != nil {
			return nil, err
		}
	}
	return meta, nil
}

// instDir is instance i's directory under the store root.
func instDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("inst-%02d", i)) }
