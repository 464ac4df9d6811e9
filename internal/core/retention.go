package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flowkv/internal/faultfs"
)

// CheckpointInfo describes one checkpoint directory found by
// ListCheckpoints.
type CheckpointInfo struct {
	// Path is the checkpoint directory.
	Path string
	// Pattern and Instances are the store shape recorded in the CUT.
	Pattern   Pattern
	Instances int
	// Files is the number of files the checkpoint holds, the CUT and the
	// segment files it names; SizeBytes is their total size.
	Files     int
	SizeBytes int64
	// ModTime is the directory's modification time (checkpoint age).
	ModTime time.Time
	// Parent is the sibling checkpoint this incremental checkpoint was
	// diffed against ("" for a full/base checkpoint); Depth is its
	// position in the incremental chain (0 = base).
	Parent string
	Depth  int
	// Err is non-nil when the checkpoint failed verification: missing,
	// truncated, or bit-flipped files, or extra files not in the CUT.
	Err error
}

// ListCheckpoints scans the immediate subdirectories of parent and
// returns one CheckpointInfo per directory holding a CUT, each fully
// verified against it (every segment file's size and CRC32C), sorted
// newest first. Directories without a CUT are skipped, so
// store data directories living next to checkpoints are ignored. A nil
// fsys means the real OS filesystem.
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
		if !e.IsDir() {
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
		ci.Parent, ci.Depth = c.Parent, c.Depth
		ci.Files, ci.SizeBytes = segmentBytes(c)
		ci.Files++
		ci.SizeBytes += c.Size()
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

// CheckpointChain resolves dir's incremental-checkpoint chain by
// following parent references: it returns the base names of the chain
// from dir itself down toward the base, stopping early (without error)
// when an ancestor has already been garbage-collected. Checkpoint
// directories are physically self-contained, so a truncated chain is
// still restorable from dir alone; the walk exists for display, GC
// refcounting, and to reject malformed chains — a cycle in the parent
// references yields a CheckpointError (errors.Is ErrCheckpointInvalid).
// A nil fsys means the real OS filesystem.
func CheckpointChain(fsys faultfs.FS, dir string) ([]string, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	parent := filepath.Dir(dir)
	name := filepath.Base(dir)
	var chain []string
	seen := make(map[string]bool)
	for name != "" {
		if seen[name] {
			return nil, &CheckpointError{Dir: filepath.Join(parent, name),
				Reason: fmt.Sprintf("cycle in checkpoint parent chain at %q", name)}
		}
		seen[name] = true
		chain = append(chain, name)
		c, err := loadCut(fsys, filepath.Join(parent, name))
		if err != nil {
			if len(chain) == 1 {
				return nil, err
			}
			chain = chain[:len(chain)-1] // ancestor already collected
			break
		}
		name = c.Parent
	}
	return chain, nil
}

// gcCheckpoints enforces Options.RetainCheckpoints: among the sibling
// directories of the just-committed checkpoint, the keep newest valid
// checkpoints survive and older ones are removed — except generations a
// surviving incremental checkpoint still references through its parent
// chain, which are retained too (refcounted GC). Hard links make every
// directory physically self-contained, so collecting a parent would not
// corrupt its children; keeping referenced ancestors preserves the
// verifiable chain (flowkvctl display, CheckpointChain) until a newer
// base makes them unreachable. Only directories whose CUT parses
// are candidates — anything else next to the checkpoints (store data
// directories, stray files, in-flight ".tmp"/".old" directories) is
// never touched. The just-committed checkpoint is always kept regardless
// of timestamps, as is any directory in protected — the parents that
// concurrent in-flight deltas are hard-linking against (keyed by
// cleaned path); protecting them extends to their chain ancestors
// through the same reachability closure.
func gcCheckpoints(fsys faultfs.FS, just string, keep int, protected map[string]bool) error {
	parent := filepath.Dir(just)
	ents, err := fsys.ReadDir(parent)
	if err != nil {
		return err
	}
	type cand struct {
		path   string
		name   string
		parent string
		mod    time.Time
	}
	base := filepath.Base(just)
	justParent := ""
	var cands []cand
	for _, e := range ents {
		if !e.IsDir() ||
			strings.HasSuffix(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".old") {
			continue
		}
		dir := filepath.Join(parent, e.Name())
		// Quarantined checkpoints are outside the retention set entirely:
		// they neither occupy a keep slot (a rotten generation must not
		// shadow a restorable one) nor become removal candidates (the
		// quarantined bytes are preserved for inspection).
		if IsQuarantined(fsys, dir) {
			continue
		}
		cut, err := loadCut(fsys, dir)
		if err != nil {
			continue
		}
		if e.Name() == base {
			justParent = cut.Parent
			continue
		}
		c := cand{path: dir, name: e.Name(), parent: cut.Parent}
		if info, ierr := e.Info(); ierr == nil {
			c.mod = info.ModTime()
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mod.Equal(cands[j].mod) {
			return cands[i].mod.After(cands[j].mod)
		}
		return cands[i].name > cands[j].name
	})
	// Seed the kept set with the just-committed checkpoint and the
	// keep-1 newest siblings, then close it over parent references: any
	// candidate a kept checkpoint links against survives this round. The
	// visited set bounds the walk even if crafted CUTs form a
	// parent cycle.
	parentOf := make(map[string]string, len(cands)+1)
	parentOf[base] = justParent
	for _, c := range cands {
		parentOf[c.name] = c.parent
	}
	kept := map[string]bool{base: true}
	for i := 0; i < keep-1 && i < len(cands); i++ {
		kept[cands[i].name] = true
	}
	for _, c := range cands {
		if protected[filepath.Clean(c.path)] {
			kept[c.name] = true
		}
	}
	reachable := make(map[string]bool, len(kept))
	for name := range kept {
		for cur := name; cur != "" && !reachable[cur]; {
			reachable[cur] = true
			cur = parentOf[cur]
		}
	}
	var first error
	for i := keep - 1; i >= 0 && i < len(cands); i++ {
		if reachable[cands[i].name] {
			continue
		}
		if rerr := fsys.RemoveAll(cands[i].path); rerr != nil && first == nil {
			first = rerr
		}
	}
	if first != nil {
		return first
	}
	return fsys.SyncDir(parent)
}
