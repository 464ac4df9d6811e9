package rmw

import (
	"flowkv/internal/ckpt"
	"flowkv/internal/ckpt/ckpttest"
)

// checkpointTo cuts s, as the one instance of a checkpoint, into dir
// against parent, its files section in the checkpoint at parentDir.
func (s *Store) checkpointTo(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	return ckpttest.Checkpoint(s.dir.FS(), dir, parent, parentDir, s.CheckpointDelta)
}

// restoreFrom restores s from the one-instance checkpoint in dir.
func (s *Store) restoreFrom(dir string) error {
	src, err := ckpttest.Source(dir)
	if err != nil {
		return err
	}
	return s.Restore(src)
}
