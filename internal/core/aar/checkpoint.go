package aar

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"flowkv/internal/ckpt"
	"flowkv/internal/window"
)

// CheckpointDelta writes a snapshot of the instance into cut. The paper's
// §8 describes the discipline: in-memory data is flushed to disk first, so
// the on-disk files form the snapshot. Each per-window log is recorded in
// the instance's files section as an ordered list of sealed segment files;
// where the cut's parent still describes a prefix of a live log, its
// segments are hard-linked across and only the appended tail is copied
// (ckpt.Cut.Log). Without a parent every log is copied whole. Nothing is
// fsynced here: the returned Result names every file that still needs a
// sync.
//
// CheckpointDelta holds only ioMu, so concurrent Appends proceed while
// the snapshot is written; the cut is the instant the buffer is detached
// inside the flush. Tuples appended after that instant are not in the
// snapshot.
func (s *Store) CheckpointDelta(cut *ckpt.Cut) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if err := s.flushAllLocked(); err != nil {
		return nil, err
	}
	wins := make([]window.Window, 0, len(s.files))
	for w := range s.files {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Before(wins[j]) })
	for _, w := range wins {
		l := s.files[w]
		if err := l.Flush(); err != nil {
			return nil, err
		}
		if err := cut.Log(windowFileName(w), s.epochs[w], l.Path(), l.Size()); err != nil {
			return nil, err
		}
	}
	return cut.Finish()
}

// Restore rebuilds an instance's state from its part of a checkpoint
// written by CheckpointDelta. The store must be freshly opened (empty).
// Each per-window log is materialized by concatenating its segments, and
// the file epochs carry over, so the delta chain can continue across a
// restart. A log whose first record is not a flush chunk — one written
// in an earlier layout, the undeflated tag-0 rows or the count-prefixed
// records before them — fails with a *ChunkError.
func (s *Store) Restore(src *ckpt.Source) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.buf) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("aar: restore into a non-empty store")
	}
	s.mu.Unlock()
	if len(s.files) != 0 {
		return fmt.Errorf("aar: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	for i := range src.Meta.Files {
		fstate := &src.Meta.Files[i]
		w, ok := parseWindowFileName(fstate.Logical)
		if !ok {
			return fmt.Errorf("aar: restore: unexpected logical file %q", fstate.Logical)
		}
		if err := ckpt.Materialize(fsys, src.Dir, fstate, filepath.Join(s.dir.Root(), fstate.Logical)); err != nil {
			return fmt.Errorf("aar: restore: %w", err)
		}
		l, err := s.dir.Open(fstate.Logical)
		if err != nil {
			return err
		}
		s.files[w] = l
		s.epochs[w] = fstate.Epoch
		// A log of an earlier chunk layout fails here, not in its drain.
		sc, err := l.Scanner(0)
		if err == nil && sc.Scan() {
			_, err = DecodeChunk(sc.Record(), func([]byte, [][]byte) {})
			sc.Close()
		}
		if err != nil {
			return fmt.Errorf("aar: restore %s: %w", fstate.Logical, err)
		}
	}
	return nil
}

// parseWindowFileName inverts windowFileName.
func parseWindowFileName(name string) (window.Window, bool) {
	if !strings.HasPrefix(name, "win_") || !strings.HasSuffix(name, ".log") {
		return window.Window{}, false
	}
	var start, end int64
	if _, err := fmt.Sscanf(name, "win_%d_%d.log", &start, &end); err != nil {
		return window.Window{}, false
	}
	return window.Window{Start: start, End: end}, true
}
