package spe

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
)

// VerifyJobDir deep-verifies a job directory offline, without opening
// the job: the JOB progress record must decode, the committed generation
// must exist and hold every cut its key-range manifest names, every cut
// must verify against its CUT (size and CRC32C of every file), each
// generation's GENMETA sidecar must decode and agree with its directory,
// and the committed prefix of the sink ledger must frame- and
// payload-decode end to end.
// Quarantined generations are failures too: the directory still holds
// detected rot an operator has not resolved. The first failure is
// returned; nil means every committed byte verified. A nil fsys means
// the real OS filesystem.
func VerifyJobDir(fsys faultfs.FS, dir string) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	meta, err := ReadJobMeta(fsys, dir)
	if err != nil {
		return err
	}
	gens, err := ListGenerations(fsys, dir)
	if err != nil {
		return err
	}
	tipSeen := false
	for _, g := range gens {
		gdir := filepath.Join(dir, GenDirName(g))
		if g > meta.Gen {
			// Debris from a crash mid-commit: never committed, removed
			// by the next Resume. A partial checkpoint here is expected,
			// not corruption of anything the job promised to keep.
			continue
		}
		if g == meta.Gen {
			tipSeen = true
		}
		if reason, ok := core.QuarantineReason(fsys, gdir); ok {
			return fmt.Errorf("spe: verify %s: generation %d quarantined: %s", dir, g, reason)
		}
		ents, err := fsys.ReadDir(gdir)
		if err != nil {
			return fmt.Errorf("spe: verify %s: %w", dir, err)
		}
		cuts := 0
		for _, e := range ents {
			if _, _, ok := ParseCutDir(e.Name()); !ok || !e.IsDir() {
				continue
			}
			if _, _, err := core.VerifyCheckpointDir(fsys, filepath.Join(gdir, e.Name())); err != nil {
				return fmt.Errorf("spe: verify %s: generation %d: %w", dir, g, err)
			}
			cuts++
		}
		if g == meta.Gen {
			if cuts == 0 {
				return fmt.Errorf("spe: verify %s: committed generation %d holds no checkpoints", dir, g)
			}
			if _, err := StageCuts(ents, meta.StagePars); err != nil {
				return fmt.Errorf("spe: verify %s: generation %d: %w", dir, g, err)
			}
		}
		if b, rerr := fsys.ReadFile(filepath.Join(gdir, genMetaName)); rerr == nil {
			gm, derr := decodeJobMeta(b)
			if derr != nil {
				return fmt.Errorf("spe: verify %s: generation %d GENMETA: %w", dir, g, derr)
			}
			if gm.Gen != g {
				return fmt.Errorf("spe: verify %s: generation %d GENMETA names generation %d", dir, g, gm.Gen)
			}
		} else if !errors.Is(rerr, fs.ErrNotExist) {
			return fmt.Errorf("spe: verify %s: generation %d GENMETA: %w", dir, g, rerr)
		}
	}
	if !tipSeen {
		return fmt.Errorf("spe: verify %s: committed generation %d is missing", dir, meta.Gen)
	}
	return verifyLedger(fsys, dir, meta)
}

// verifyLedger decodes the committed prefix of the sink ledger block by
// block. Each block is a binio frame, so a zeroed page (a frame cannot start
// with a zero byte) or a flipped bit fails its CRC. Its payload is decoded
// too, and must hold exactly the records its count names with no byte
// left over, so a block whose CRC happened to survive rot is caught as
// well; and the blocks must end exactly at the committed length. Bytes
// past it are an uncommitted suffix that the next resume discards, so
// they are not verified.
func verifyLedger(fsys faultfs.FS, dir string, meta JobMeta) error {
	if err := decodeLedger(fsys, dir, meta, func(int64, []byte, []byte) {}); err != nil {
		return fmt.Errorf("spe: verify %s: %w", dir, err)
	}
	return nil
}
