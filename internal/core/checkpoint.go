package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// Checkpoint writes a consistent snapshot of the composite store into
// dir, one subdirectory per instance. Per the paper's §8 discussion, SPEs
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
// meta is written to an APPMETA file inside the snapshot before the
// MANIFEST is written, so it is covered by the same size+CRC32C
// verification as the store files and committed by the same atomic
// rename. The SPE layer uses it to record source offsets, watermarks,
// and operator state alongside the store cut, which is what makes a
// checkpoint a resumable point rather than just a backup. A nil meta
// writes no APPMETA.
func (s *Store) CheckpointWithMeta(dir string, meta []byte) error {
	return s.CheckpointDelta(dir, "", meta)
}

// appMetaName is the application-metadata file inside a checkpoint
// directory. It holds the metadata as one deflate stream (binio.Deflate),
// and is listed in the MANIFEST like any store file — its size and CRC are
// the deflated bytes' — so tampering with it invalidates the whole
// checkpoint.
const appMetaName = "APPMETA"

// writeAppMeta durably writes meta, deflated, as the application metadata
// file of the snapshot staging directory, and returns its MANIFEST entry,
// whose size and CRC are the deflated bytes'.
func writeAppMeta(fsys faultfs.FS, dir string, meta []byte) (manifestEntry, error) {
	z, err := binio.Deflate(nil, meta)
	if err != nil {
		return manifestEntry{}, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
	}
	f, err := fsys.Create(filepath.Join(dir, appMetaName))
	if err != nil {
		return manifestEntry{}, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
	}
	if _, err := f.Write(z); err != nil {
		f.Close()
		return manifestEntry{}, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return manifestEntry{}, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
	}
	if err := f.Close(); err != nil {
		return manifestEntry{}, fmt.Errorf("flowkv: checkpoint: appmeta: %w", err)
	}
	return manifestEntry{path: appMetaName, size: int64(len(z)), crc: binio.Checksum(z)}, nil
}

// ReadCheckpointMeta returns the application metadata stored in a
// checkpoint directory by CheckpointWithMeta, or nil if the checkpoint
// carries none. It does not verify the checkpoint — callers that need
// integrity use RestoreWithMeta or VerifyCheckpointDir first — but an
// APPMETA that does not inflate (rot, or a checkpoint written before the
// metadata was deflated) is a *binio.FrameError. A nil fsys uses the real
// filesystem.
func ReadCheckpointMeta(fsys faultfs.FS, dir string) ([]byte, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(dir, appMetaName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("flowkv: read checkpoint meta: %w", err)
	}
	meta, err := binio.Inflate(nil, b)
	if err != nil {
		return nil, fmt.Errorf("flowkv: read checkpoint meta: %w", err)
	}
	return meta, nil
}

// Restore rebuilds a freshly-opened store from a checkpoint directory
// written by Checkpoint or CheckpointDelta with the same pattern and
// instance count. Key routing is deterministic, so each restored instance
// again owns exactly the keys whose state it holds.
//
// Before any instance state is loaded, the checkpoint is verified against
// its MANIFEST; a partial, truncated, or bit-flipped snapshot is rejected
// with a CheckpointError (errors.Is ErrCheckpointInvalid) and the store
// is left untouched, so the caller can fall back to an older checkpoint.
func (s *Store) Restore(dir string) error {
	_, err := s.RestoreWithMeta(dir)
	return err
}

// RestoreWithMeta is Restore returning the application metadata the
// checkpoint was taken with (nil for checkpoints written without any).
// The metadata is read and inflated only after the manifest verification
// passes, so a non-nil return is exactly the bytes given to
// CheckpointWithMeta.
func (s *Store) RestoreWithMeta(dir string) ([]byte, error) {
	if len(s.insts) != s.opts.Instances {
		return nil, fmt.Errorf("flowkv: restore: store not fully open")
	}
	if err := verifyCheckpoint(s.opts.FS, dir, s.pattern, s.opts.Instances); err != nil {
		return nil, err
	}
	meta, err := ReadCheckpointMeta(s.opts.FS, dir)
	if err != nil {
		return nil, err
	}
	for i, inst := range s.insts {
		if err := inst.Restore(instDir(dir, i)); err != nil {
			return nil, err
		}
	}
	return meta, nil
}

// instName is instance i's directory name, under the store root and
// under every checkpoint directory alike.
func instName(i int) string { return fmt.Sprintf("inst-%02d", i) }

func instDir(dir string, i int) string { return filepath.Join(dir, instName(i)) }
