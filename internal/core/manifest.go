package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

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
	// directory-level problems (missing or unreadable CUT).
	File string
	// Reason describes the failed check.
	Reason string
	// Err is the failure underneath the check, when there is one: a
	// *binio.FrameError for a CUT frame or section that fails
	// verification.
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

// parseCut decodes dir's CUT file. On rejection it returns a
// *CheckpointError naming the CUT, wrapping the decoder's error; it never
// panics, whatever the input (fuzzed by FuzzParseManifest).
func parseCut(dir string, b []byte) (*ckpt.CutFile, error) {
	c, err := ckpt.DecodeCut(b)
	if err != nil {
		return nil, &CheckpointError{Dir: dir, File: ckpt.CutName, Reason: "undecodable", Err: err}
	}
	return c, nil
}

// loadCut reads and parses dir's CUT. A directory without one is not a
// checkpoint: the error matches fs.ErrNotExist as well as
// ErrCheckpointInvalid.
func loadCut(fsys faultfs.FS, dir string) (*ckpt.CutFile, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, ckpt.CutName))
	if err != nil {
		return nil, &CheckpointError{Dir: dir, Reason: "missing or unreadable CUT", Err: err}
	}
	return parseCut(dir, b)
}

// readCut parses dir's CUT, validating that the checkpoint was taken with
// the same pattern and instance count. A quarantined directory is rejected
// before its CUT is even read: every consumer routed through here —
// Restore, delta-parent resolution — therefore refuses quarantined
// checkpoints without further checks.
func readCut(fsys faultfs.FS, dir string, p Pattern, instances int) (*ckpt.CutFile, error) {
	if reason, ok := QuarantineReason(fsys, dir); ok {
		return nil, &CheckpointError{Dir: dir, Reason: "quarantined: " + reason}
	}
	c, err := loadCut(fsys, dir)
	if err != nil {
		return nil, err
	}
	if Pattern(c.Pattern) != p || c.Instances != instances {
		return nil, &CheckpointError{Dir: dir, File: ckpt.CutName, Reason: fmt.Sprintf("checkpoint is %v/%d instances, store is %v/%d",
			Pattern(c.Pattern), c.Instances, p, instances)}
	}
	return c, nil
}

// verifyContents checks dir against its decoded CUT c: every file an
// instance's files section names is present with the recorded size and
// CRC32C, and no other file exists. Any deviation — a truncated copy, a
// bit-flip, a file from a half-finished later attempt — yields a
// CheckpointError rather than a silently partial restore.
func verifyContents(fsys faultfs.FS, dir string, c *ckpt.CutFile) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return &CheckpointError{Dir: dir, Reason: fmt.Sprintf("unreadable contents: %v", err)}
	}
	unlisted := make(map[string]bool, len(ents))
	for _, e := range ents {
		if e.Name() != ckpt.CutName {
			unlisted[e.Name()] = true
		}
	}
	if err := c.EachFile(func(name string, f *ckpt.FileState) error {
		present := unlisted[name]
		delete(unlisted, name)
		return verifyFile(fsys, dir, name, f, present)
	}); err != nil {
		return err
	}
	for name := range unlisted {
		return &CheckpointError{Dir: dir, File: name, Reason: "not listed in CUT"}
	}
	return nil
}

// verifyFile checks the file name of dir, present saying whether the
// directory lists it, against f's recorded size and CRC32C.
func verifyFile(fsys faultfs.FS, dir, name string, f *ckpt.FileState, present bool) error {
	if !present {
		return &CheckpointError{Dir: dir, File: name, Reason: "listed in CUT but missing"}
	}
	b, err := fsys.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return &CheckpointError{Dir: dir, File: name, Reason: "unreadable", Err: err}
	}
	if int64(len(b)) != f.Len {
		return &CheckpointError{Dir: dir, File: name,
			Reason: fmt.Sprintf("size %d, CUT says %d", len(b), f.Len)}
	}
	if crc := binio.Checksum(b); crc != f.CRC {
		// Name the exact damage: expected vs observed checksum, and the
		// offset of the first frame that no longer verifies.
		reason := fmt.Sprintf("checksum mismatch: manifest %08x, file %08x", f.CRC, crc)
		if off := firstCorruptFrame(b); off >= 0 {
			reason += fmt.Sprintf(", first corrupt frame at offset %d", off)
		}
		return &CheckpointError{Dir: dir, File: name, Reason: reason}
	}
	return nil
}

// CheckpointInfo describes one checkpoint directory found by
// ListCheckpoints.
type CheckpointInfo struct {
	// Path is the checkpoint directory.
	Path string
	// Pattern and Instances are the store shape recorded in the CUT.
	Pattern   Pattern
	Instances int
	// Files is the number of files the checkpoint holds, the CUT and the
	// files it names; SizeBytes is their total size.
	Files     int
	SizeBytes int64
	// ModTime is the directory's modification time (checkpoint age).
	ModTime time.Time
	// Err is non-nil when the checkpoint failed verification: missing,
	// truncated, or bit-flipped files, or extra files not in the CUT.
	Err error
}

// stagingSuffix ends the name of the directory CheckpointDelta writes a
// checkpoint into before its commit renames it onto the checkpoint's own.
const stagingSuffix = ".tmp"

// IsCheckpointStaging reports whether a directory name is a checkpoint's
// staging name. A crash mid-cut leaves one holding a CUT that never
// committed: debris the next checkpoint clears, not a checkpoint to list
// or verify.
func IsCheckpointStaging(name string) bool { return strings.HasSuffix(name, stagingSuffix) }

// ListCheckpoints scans the immediate subdirectories of parent and
// returns one CheckpointInfo per directory holding a CUT, each fully
// verified against it (every file's size and CRC32C), sorted
// newest first. Directories without a CUT are skipped, so store data
// directories living next to checkpoints are ignored, and so are
// CheckpointDelta's "<name>.tmp" staging directories: a crash mid-cut
// leaves one holding a CUT that never committed. A "<name>.old" is
// listed, since a crash between the commit's two renames can leave it the
// only complete checkpoint. A nil fsys means the real OS filesystem.
func ListCheckpoints(fsys faultfs.FS, parent string) ([]CheckpointInfo, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	ents, err := fsys.ReadDir(parent)
	if err != nil {
		return nil, fmt.Errorf("flowkv: list checkpoints: %w", err)
	}
	var out []CheckpointInfo
	for _, e := range ents {
		if !e.IsDir() || IsCheckpointStaging(e.Name()) {
			continue
		}
		dir := filepath.Join(parent, e.Name())
		ci := CheckpointInfo{Path: dir}
		if info, ierr := e.Info(); ierr == nil {
			ci.ModTime = info.ModTime()
		}
		c, err := loadCut(fsys, dir)
		if errors.Is(err, fs.ErrNotExist) {
			continue // not a checkpoint directory
		}
		if err != nil {
			ci.Err = err
			out = append(out, ci)
			continue
		}
		ci.Pattern, ci.Instances = Pattern(c.Pattern), c.Instances
		ci.Files, ci.SizeBytes = 1, c.Size()
		c.EachFile(func(_ string, f *ckpt.FileState) error {
			ci.Files++
			ci.SizeBytes += f.Len
			return nil
		})
		if reason, ok := QuarantineReason(fsys, dir); ok {
			ci.Err = &CheckpointError{Dir: dir, Reason: "quarantined: " + reason}
		} else {
			ci.Err = verifyContents(fsys, dir, c)
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.After(out[j].ModTime)
		}
		return out[i].Path > out[j].Path
	})
	return out, nil
}

// VerifyCheckpointDir verifies dir against its own CUT without
// requiring an open store: the recorded pattern and instance count are
// returned rather than matched. A nil fsys means the real OS filesystem.
func VerifyCheckpointDir(fsys faultfs.FS, dir string) (Pattern, int, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if reason, ok := QuarantineReason(fsys, dir); ok {
		return 0, 0, &CheckpointError{Dir: dir, Reason: "quarantined: " + reason}
	}
	c, err := loadCut(fsys, dir)
	if err != nil {
		return 0, 0, err
	}
	return Pattern(c.Pattern), c.Instances, verifyContents(fsys, dir, c)
}
