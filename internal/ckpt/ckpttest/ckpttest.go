// Package ckpttest cuts and restores one store instance alone, as instance
// 0 of a one-instance checkpoint, for the pattern packages' tests: what
// the composite store does for each of its instances, without it.
package ckpttest

import (
	"slices"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// Checkpoint writes the checkpoint directory dir (created if needed)
// holding what cut — an instance's CheckpointDelta — writes, priced
// against parent, instance 0's files section of the checkpoint at
// parentDir. Nothing is fsynced.
func Checkpoint(fsys faultfs.FS, dir string, parent *ckpt.Meta, parentDir string, cut func(*ckpt.Cut) (*ckpt.Result, error)) (*ckpt.Result, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := ckpt.Create(fsys, dir, ckpt.Header{Instances: 1})
	if err != nil {
		return nil, err
	}
	res, err := cut(w.Begin(0, parent, parentDir))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// Source reads dir's CUT and returns instance 0's part of it.
func Source(dir string) (*ckpt.Source, error) {
	c, err := ckpt.ReadCut(faultfs.OS, dir)
	if err != nil {
		return nil, err
	}
	return c.Source(dir, 0), nil
}

// Meta returns instance 0's files section of the checkpoint in dir.
func Meta(dir string) (*ckpt.Meta, error) {
	src, err := Source(dir)
	if err != nil {
		return nil, err
	}
	return src.Meta, nil
}

// Write writes dir's CUT by hand: instance 0's files section meta, then
// its other sections by kind, each whole frames.
func Write(dir string, meta *ckpt.Meta, sections map[string][]byte) error {
	w, err := ckpt.Create(faultfs.OS, dir, ckpt.Header{Instances: 1})
	if err != nil {
		return err
	}
	w.Put(ckpt.InstPrefix(0)+ckpt.KindFiles, meta.Encode())
	kinds := make([]string, 0, len(sections))
	for kind := range sections {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		w.Put(ckpt.InstPrefix(0)+kind, sections[kind])
	}
	return w.Close()
}

// SectionBytes sums the lengths of instance 0's sections kinds in the
// checkpoint in dir: what its cut counted as copied besides segments.
func SectionBytes(dir string, kinds ...string) (int64, error) {
	src, err := Source(dir)
	var n int64
	for _, kind := range kinds {
		var b []byte
		if err == nil {
			b, err = src.Section(kind)
		}
		n += int64(len(b))
	}
	return n, err
}
