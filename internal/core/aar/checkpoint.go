package aar

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"flowkv/internal/ckpt"
	"flowkv/internal/logfile"
	"flowkv/internal/window"
)

// CheckpointDelta writes a snapshot of the instance into cut. The paper's
// §8 describes the discipline: in-memory data is flushed to disk first, so
// the on-disk files form the snapshot. The flush spills the write buffer,
// the window's open file is sealed, and every file of every window's log
// is hard-linked into the cut (ckpt.Cut.Link), from the parent when it
// holds the same file. So no window byte is copied: the window's next
// flush opens its next file. Nothing is fsynced here: the returned Result
// names every file that still needs a sync.
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
		wl := s.files[w]
		if wl.open {
			// A failed flush poisons the log, which the check below reports.
			_ = wl.files[len(wl.files)-1].Seal()
			wl.open = false
		}
		for _, f := range wl.files {
			err := f.Poisoned() // else its file may lack what it appended
			if err == nil {
				err = cut.Link(fileName(w, f.n), f.epoch, f.Path(), f.Size(), f.CRC(), f.DurableOffset() == f.Size())
			}
			if err != nil {
				return nil, fmt.Errorf("aar: checkpoint %s: %w", fileName(w, f.n), err)
			}
		}
	}
	return cut.Finish()
}

// Restore rebuilds an instance's state from its part of a checkpoint
// written by CheckpointDelta. The store must be freshly opened (empty).
// Each window file is linked back and opened sealed (ckpt.Source.Restore),
// with its epoch, so the window's next flush opens a file of its own. A
// file whose first record is not a flush chunk — one written in an earlier
// layout, the undeflated tag-0 rows or the count-prefixed records before
// them — fails with a *ChunkError.
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
		f := &src.Meta.Files[i]
		w, n, ok := parseFileName(f.Logical)
		if !ok {
			return fmt.Errorf("aar: restore: unexpected logical file %q", f.Logical)
		}
		var l *logfile.Log
		err := src.Restore(fsys, f, filepath.Join(s.dir.Root(), f.Logical), func() (*logfile.Log, error) {
			var err error
			l, err = s.dir.OpenSealed(f.Logical, f.CRC)
			return l, err
		})
		if err != nil {
			if l != nil {
				l.Close()
			}
			return fmt.Errorf("aar: restore: %w", err)
		}
		wl := s.files[w]
		if wl == nil {
			wl = &winLog{}
			s.files[w] = wl
		}
		wl.files = append(wl.files, winFile{l, n, f.Epoch})
		s.nextFile = max(s.nextFile, n+1)
		// A log of an earlier chunk layout fails here, not in its drain.
		sc, err := l.Scanner(0)
		if err == nil && sc.Scan() {
			_, err = DecodeChunk(sc.Record(), func([]byte, [][]byte) {})
			sc.Close()
		}
		if err != nil {
			return fmt.Errorf("aar: restore %s: %w", f.Logical, err)
		}
	}
	for _, wl := range s.files {
		slices.SortFunc(wl.files, func(a, b winFile) int { return a.n - b.n })
	}
	return nil
}
