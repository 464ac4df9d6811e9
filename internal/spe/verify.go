package spe

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
)

// VerifyJobDir deep-verifies a job directory offline, without opening
// the job: the JOB progress record must decode, the committed generation
// must exist and hold every cut its key-range manifest names, every cut
// must verify against its MANIFEST (size and CRC32C of every file), each
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
		gdir := filepath.Join(dir, genDirName(g))
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

// verifyLedger decodes the committed prefix of the sink ledger record by
// record. Payloads are decoded too, not just frame CRCs: an all-zero rot
// page happens to satisfy the legacy v0 framing (CRC32C of the empty
// payload is zero), but an empty payload can never decode as a sink
// record. Bytes past the committed length are an uncommitted suffix that
// the next resume discards, so they are not verified.
func verifyLedger(fsys faultfs.FS, dir string, meta JobMeta) error {
	b, err := fsys.ReadFile(filepath.Join(dir, ledgerName))
	if errors.Is(err, fs.ErrNotExist) {
		b = nil
	} else if err != nil {
		return fmt.Errorf("spe: verify %s: ledger: %w", dir, err)
	}
	if meta.LedgerLen > int64(len(b)) {
		return fmt.Errorf("spe: verify %s: ledger is %d bytes, JOB commits %d", dir, len(b), meta.LedgerLen)
	}
	sc := binio.NewRecordScanner(bytes.NewReader(b[:meta.LedgerLen]), 0)
	for sc.Scan() {
		d := snapDecoder{b: sc.Record()}
		d.varint()
		d.bytes()
		d.bytes()
		if d.err != nil {
			return fmt.Errorf("spe: verify %s: ledger record ending at offset %d: %w", dir, sc.Offset(), d.err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("spe: verify %s: ledger: %w", dir, err)
	}
	if sc.Offset() != meta.LedgerLen {
		return fmt.Errorf("spe: verify %s: committed ledger ends mid-record at %d of %d", dir, sc.Offset(), meta.LedgerLen)
	}
	return nil
}
