package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// FuzzParseManifest feeds arbitrary bytes to the checkpoint MANIFEST
// parser. The parser is the gate between a possibly-corrupted checkpoint
// directory and Restore, so it must reject garbage with a reason rather
// than panic, and anything it accepts must survive an encode/parse round
// trip unchanged (the manifest format is canonical). Parent references —
// the header of a delta cut — must always be plain sibling names, never
// paths that would let a crafted manifest walk the chain out of the
// checkpoint directory.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeManifest(&manifest{pattern: PatternAAR, instances: 4}))
	f.Add(encodeManifest(&manifest{pattern: PatternAUR, instances: 2, entries: []manifestEntry{
		{path: "inst-0000/data-000000.log", size: 4096, crc: 0xdeadbeef},
		{path: "inst-0000/index-000000.log", size: 128, crc: 1},
	}}))
	f.Add(encodeManifest(&manifest{pattern: PatternRMW, instances: 1, entries: []manifestEntry{{path: "inst-0000/rmw.log", size: 0, crc: 0}}}))
	// Truncated and bit-flipped variants of a valid parentless manifest.
	base := encodeManifest(&manifest{pattern: PatternAUR, instances: 8, entries: []manifestEntry{{path: "x", size: 7, crc: 9}}})
	f.Add(base[:len(base)-3])
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	segs := []manifestEntry{
		{path: "inst-00/SEGMENTS", size: 96, crc: 0x1234},
		{path: "inst-00/win_0_10.log.seg-000000000000", size: 4096, crc: 0xdeadbeef},
		{path: "inst-00/win_0_10.log.seg-000000004096", size: 512, crc: 0xfeed},
		{path: "APPMETA", size: 33, crc: 7},
	}
	f.Add(encodeManifest(&manifest{pattern: PatternAAR, instances: 1, parent: "gen-000004", depth: 3, entries: segs}))
	f.Add(encodeManifest(&manifest{pattern: PatternRMW, instances: 2, parent: "gen-000001", depth: 1,
		entries: []manifestEntry{{path: "inst-00/rmw-000000.log.seg-000000000000", size: 64, crc: 1}}}))
	// No parent, depth 0: a base, here one written at the chain cap.
	f.Add(encodeManifest(&manifest{pattern: PatternAUR, instances: 4, parent: "", depth: 0, entries: segs[:1]}))
	// Hostile parents: traversal and separators must be rejected.
	f.Add(encodeManifest(&manifest{pattern: PatternAAR, instances: 1, parent: "gen-000001", depth: 1}))
	full := encodeManifest(&manifest{pattern: PatternAUR, instances: 2, parent: "gen-000007", depth: 2, entries: segs})
	f.Add(full[:len(full)-5])
	flipped = append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseManifest("fuzz", b)
		if err != nil {
			if ce := (*CheckpointError)(nil); !errors.As(err, &ce) || !errors.Is(err, ErrCheckpointInvalid) {
				t.Fatalf("rejected with %v, not a CheckpointError", err)
			}
			return
		}
		if m.parent == "." || m.parent == ".." ||
			bytes.ContainsAny([]byte(m.parent), "/\\") {
			t.Fatalf("accepted non-sibling parent %q", m.parent)
		}
		roundTripManifest(t, m)
	})
}

// TestV1ManifestIsRejected pins the one-format rule: a MANIFEST in the
// v1 format, which base checkpoints were written in before every manifest
// carried a parent and a depth, is rejected as a CheckpointError, not
// read.
func TestV1ManifestIsRejected(t *testing.T) {
	dir := t.TempDir()
	header := binio.PutString(nil, "flowkv-checkpoint-v1")
	header = binio.PutUvarint(binio.PutUvarint(header, uint64(PatternRMW)), 1)
	if err := os.WriteFile(filepath.Join(dir, manifestName), binio.AppendRecord(nil, header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readManifest(faultfs.OS, dir, PatternRMW, 1)
	var ce *CheckpointError
	if !errors.As(err, &ce) || ce.Reason != "bad magic" || !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("v1 manifest: %v, want a CheckpointError saying bad magic", err)
	}
}

func roundTripManifest(t *testing.T, m *manifest) {
	t.Helper()
	re := encodeManifest(m)
	m2, err := parseManifest("round-trip", re)
	if err != nil {
		t.Fatalf("re-encoded manifest rejected: %v", err)
	}
	if m2.pattern != m.pattern || m2.instances != m.instances ||
		m2.parent != m.parent || m2.depth != m.depth || len(m2.entries) != len(m.entries) {
		t.Fatalf("round trip changed header: %+v -> %+v", m, m2)
	}
	for i := range m.entries {
		if m2.entries[i] != m.entries[i] {
			t.Fatalf("round trip changed entry %d: %+v -> %+v", i, m.entries[i], m2.entries[i])
		}
	}
}

// TestCheckpointChainCycle crafts two checkpoints whose manifests name
// each other as parents; resolving the chain must fail with
// ErrCheckpointInvalid instead of walking forever.
func TestCheckpointChainCycle(t *testing.T) {
	dir := t.TempDir()
	writeCycleManifest(t, dir, "gen-000001", "gen-000002")
	writeCycleManifest(t, dir, "gen-000002", "gen-000001")
	_, err := CheckpointChain(nil, dir+"/gen-000002")
	if err == nil {
		t.Fatal("cycle in parent chain accepted")
	}
	if !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("cycle error is %v, want ErrCheckpointInvalid", err)
	}
}

func writeCycleManifest(t *testing.T, parent, name, ref string) {
	t.Helper()
	d := filepath.Join(parent, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		t.Fatal(err)
	}
	buf := encodeManifest(&manifest{pattern: PatternAAR, instances: 1, parent: ref, depth: 1})
	if err := os.WriteFile(filepath.Join(d, manifestName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
