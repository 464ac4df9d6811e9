package spe

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/window"
)

// snapHeader is a window-operator snapshot up to its aligned-window count:
// magic, watermark and counters.
func snapHeader() []byte {
	b := []byte(opSnapMagic)
	for i := 0; i < 4; i++ {
		b = binio.PutVarint(b, 0)
	}
	return b
}

// corruptCountSnapshots are short inputs whose counts name far more
// elements than the bytes behind them could hold.
func corruptCountSnapshots() map[string][]byte {
	keyK := func(b []byte) []byte { return binio.PutString(binio.PutUvarint(b, 0), "k") }
	huge := func(b []byte) []byte { return binio.PutUvarint(b, 1<<40) }
	sessions := func(b []byte) []byte { return binio.PutVarint(binio.PutUvarint(b, 0), 0) } // no aligned windows, L = 0
	return map[string][]byte{
		"aligned windows":  huge(snapHeader()),
		"aligned key set":  huge(binio.PutVarint(binio.PutVarint(binio.PutUvarint(snapHeader(), 1), 0), 10)),
		"session keys":     huge(sessions(snapHeader())),
		"sessions of key":  huge(keyK(binio.PutUvarint(sessions(snapHeader()), 1))),
		"initials":         huge(binio.PutUvarint(binio.PutVarint(binio.PutUvarint(keyK(binio.PutUvarint(sessions(snapHeader()), 1)), 1), 0), 0)),
		"join buckets":     huge(binio.PutVarint(binio.PutVarint(binio.PutVarint([]byte(joinSnapMagic), 0), 0), 0)),
		"join key set":     huge(binio.PutVarint(binio.PutVarint(binio.PutUvarint(binio.PutVarint(binio.PutVarint(binio.PutVarint([]byte(joinSnapMagic), 0), 0), 0), 1), 0), 10)),
		"custom windows":   huge(keyK(binio.PutUvarint(binio.PutUvarint(sessions(snapHeader()), 0), 1))),
		"counted elements": huge(binio.PutUvarint(binio.PutUvarint(sessions(snapHeader()), 0), 0)),
	}
}

// TestOperatorSnapshotCorruptCountFailsFast: a count that decodes as 2^40
// in any position — the 40-byte input that used to spin appending
// sessions — is rejected at once, without a loop over it.
func TestOperatorSnapshotCorruptCountFailsFast(t *testing.T) {
	for name, b := range corruptCountSnapshots() {
		var err error
		if strings.HasPrefix(string(b), joinSnapMagic) {
			err = (&IntervalJoinOperator{}).restoreState(b)
		} else {
			err = (&WindowOperator{}).restoreState(b)
		}
		if err == nil {
			t.Errorf("%s: a 2^40 count in %d bytes was accepted", name, len(b))
		}
	}
}

// TestOperatorSnapshotRejectsOldFormat: snapshots of the previous
// encoding — opsnap1, joinsnap1 — fail as "bad magic"; a job directory
// that holds them does not resume.
func TestOperatorSnapshotRejectsOldFormat(t *testing.T) {
	for _, magic := range []string{"flowkv-opsnap1\n", "flowkv-joinsnap1\n"} {
		old := binio.PutVarint([]byte(magic), 0)
		for _, op := range []opSnapshotter{&WindowOperator{}, &IntervalJoinOperator{}} {
			if err := op.restoreState(old); err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Errorf("%q restored into %T: %v, want bad magic", strings.TrimSpace(magic), op, err)
			}
		}
	}
}

// TestOperatorSnapshotSessionsAreRelative: a session's windows are stored
// against its own start and the snapshot's shortest window, so an
// in-order session — one initial, starting where the session does, a gap
// long — costs its start, two bytes of lengths and counts, and two bytes
// for the initial, however large its timestamps.
func TestOperatorSnapshotSessionsAreRelative(t *testing.T) {
	size := func(start int64) int {
		o := emptyOpState(false).(*WindowOperator)
		init := window.Window{Start: start, End: start + 25000}
		o.sessions["k"] = []*session{{cur: window.Window{Start: start, End: start + 31000}, initials: []window.Window{init}}}
		return len(o.snapshotState())
	}
	small, large := size(7), size(1_700_000_000_000)
	if large-small != len(binio.PutVarint(nil, 1_700_000_000_000))-len(binio.PutVarint(nil, 7)) {
		t.Fatalf("a session at a large timestamp costs %d bytes more than at a small one; only its start should", large-small)
	}
	o := emptyOpState(false).(*WindowOperator)
	base := len(o.snapshotState())
	o.sessions["k"] = []*session{{cur: window.Window{Start: 7, End: 25007}, initials: []window.Window{{Start: 7, End: 25007}}}}
	// Key (shared length, suffix) 3 bytes, session count 1, start 1,
	// length 1, initial count 1, initial 2; L grows from 1 to 3 bytes.
	if got, want := len(o.snapshotState())-base, 3+1+1+1+1+2+2; got != want {
		t.Fatalf("one in-order session adds %d bytes, want %d", got, want)
	}
}

// realOpSnapshot runs a small session job, kills it with sessions still
// live, and returns a worker's committed operator snapshot (APPMETA) — a
// seed drawn from the real commit path.
func realOpSnapshot(f *testing.F) []byte {
	f.Helper()
	base := f.TempDir()
	job := &Job{
		Pipeline:        crashPipeline(crashPatterns()[1], filepath.Join(base, "state"), nil, 1<<10),
		Source:          NewSliceSource(crashTuples(300)),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: 61,
		KillAfterTuples: 250,
	}
	if _, err := job.Run(); !errors.Is(err, ErrJobKilled) {
		f.Fatalf("seed job: %v", err)
	}
	meta, err := ReadJobMeta(nil, job.Dir)
	if err != nil {
		f.Fatal(err)
	}
	b, err := core.ReadCheckpointMeta(nil, filepath.Join(job.Dir, GenDirName(meta.Gen), cutDirName(1, 0)))
	if err != nil {
		f.Fatalf("seed snapshot: %v", err)
	}
	return b
}

// FuzzDecodeOperatorSnapshot feeds arbitrary bytes to both operator
// snapshot decoders, window and interval join. Resume, rescale and
// migration all restore through them, so they must never panic or hang —
// every count is bounded by the bytes left — and since the encoding is
// canonical, any input a decoder accepts must re-encode to exactly itself
// through snapshotState.
func FuzzDecodeOperatorSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(0x0b5))
	for i := 0; i < 6; i++ {
		f.Add(randomOpState(rng, i%2 == 1).snapshotState())
	}
	f.Add(emptyOpState(false).snapshotState())
	f.Add(emptyOpState(true).snapshotState())
	real := realOpSnapshot(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	for _, b := range corruptCountSnapshots() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, op := range []opSnapshotter{&WindowOperator{}, &IntervalJoinOperator{}} {
			if op.restoreState(b) != nil {
				continue
			}
			if re := op.snapshotState(); !bytes.Equal(re, b) {
				t.Fatalf("%T accepted a snapshot that re-encodes differently:\n%x\n%x", op, b, re)
			}
		}
	})
}
