package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// cutBytes returns the CUT file a checkpoint with header h writes when
// instance i's files section is metas[i], with an appmeta section when
// meta is not nil.
func cutBytes(t testing.TB, h ckpt.Header, metas []*ckpt.Meta, meta []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.Create(faultfs.OS, dir, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metas {
		w.Put(ckpt.InstPrefix(i)+ckpt.KindFiles, m.Encode())
	}
	if meta != nil {
		w.Put(ckpt.AppMeta, binio.AppendRecord(nil, meta))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, ckpt.CutName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cutSection returns the table entry of the section name of dir's CUT.
func cutSection(t *testing.T, dir, name string) (ckpt.Section, bool) {
	t.Helper()
	c, err := ckpt.ReadCut(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range c.Sections {
		if sec.Name == name {
			return sec, true
		}
	}
	return ckpt.Section{}, false
}

// metasOf returns n files sections, each of the files files.
func metasOf(n int, files ...ckpt.FileState) []*ckpt.Meta {
	out := make([]*ckpt.Meta, n)
	for i := range out {
		out[i] = &ckpt.Meta{Files: files}
	}
	return out
}

// FuzzParseManifest feeds arbitrary bytes to core's parser of a
// checkpoint's CUT file, its manifest. The parser is the gate between a
// possibly-corrupted checkpoint directory and Restore, so it must reject
// garbage with a CheckpointError rather than panic, and what it accepts
// holds a files section for every instance it claims. ckpt's
// FuzzDecodeCut holds the decoder to its encoding.
func FuzzParseManifest(f *testing.F) {
	files := []ckpt.FileState{
		{Logical: "win_0_10.0.log", Epoch: 3, Len: 4096, CRC: 0xdeadbeef},
		{Logical: "win_0_10.1.log", Epoch: 4, Len: 512, CRC: 0xfeed},
	}
	f.Add([]byte{})
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternAAR), Instances: 4}, metasOf(4), nil))
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternAUR), Instances: 2}, metasOf(2, files...), nil))
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternRMW), Instances: 1}, metasOf(1, ckpt.FileState{Logical: "rmw-000000.log"}), nil))
	// Truncated and bit-flipped variants of a valid parentless CUT.
	base := cutBytes(f, ckpt.Header{Pattern: int(PatternAUR), Instances: 8}, metasOf(8, files[:1]...), nil)
	f.Add(base[:len(base)-3])
	flipped := bytes.Clone(base)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	// With application metadata, and of other shapes.
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternAAR), Instances: 1}, metasOf(1, files...), []byte("appmeta")))
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternRMW), Instances: 2}, metasOf(2, files[1:]...), nil))
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternAUR), Instances: 4}, metasOf(4, files[:1]...), nil))
	f.Add(cutBytes(f, ckpt.Header{Pattern: int(PatternAAR), Instances: 1}, metasOf(1), nil))
	full := cutBytes(f, ckpt.Header{Pattern: int(PatternAUR), Instances: 2}, metasOf(2, files...), []byte("meta"))
	f.Add(full[:len(full)-5])
	flipped = bytes.Clone(full)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := parseCut("fuzz", b)
		if err != nil {
			if ce := (*CheckpointError)(nil); !errors.As(err, &ce) || !errors.Is(err, ErrCheckpointInvalid) {
				t.Fatalf("rejected with %v, not a CheckpointError", err)
			}
			return
		}
		if len(c.Files) != c.Instances {
			t.Fatalf("accepted %d instances with %d files sections", c.Instances, len(c.Files))
		}
	})
}

// TestV1ManifestIsRejected pins the one-format rule: a checkpoint of an
// earlier layout — a MANIFEST file, v1 here, and no CUT — is rejected as
// a CheckpointError, not read; and a CUT whose header is not this
// layout's is rejected for its bad magic.
func TestV1ManifestIsRejected(t *testing.T) {
	dir := t.TempDir()
	header := binio.PutString(nil, "flowkv-checkpoint-v1")
	header = binio.PutUvarint(binio.PutUvarint(header, uint64(PatternRMW)), 1)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), binio.AppendRecord(nil, header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readCut(faultfs.OS, dir, PatternRMW, 1)
	var ce *CheckpointError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCheckpointInvalid) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a MANIFEST and no CUT: %v, want a CheckpointError for the missing CUT", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.CutName), binio.AppendRecord(nil, header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = readCut(faultfs.OS, dir, PatternRMW, 1)
	if !errors.As(err, &ce) || ce.File != ckpt.CutName || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v1 header in a CUT: %v, want a CheckpointError saying bad magic", err)
	}
}
