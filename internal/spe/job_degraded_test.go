package spe

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// TestShardSnapsCodecFiredWindows covers the shared-stage snapshot
// frame: the fired-window queue rides next to the per-worker operator
// snapshots, and v1 frames (no queue) are rejected.
func TestShardSnapsCodecFiredWindows(t *testing.T) {
	snaps := [][]byte{[]byte("worker-0"), []byte("worker-1"), nil}
	fired := []window.Window{{Start: 0, End: 64}, {Start: 64, End: 128}}
	enc := encodeShardSnaps(snaps, fired)
	gotSnaps, gotFired, err := decodeShardSnaps(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSnaps) != len(snaps) {
		t.Fatalf("decoded %d snaps, want %d", len(gotSnaps), len(snaps))
	}
	for i := range snaps {
		if !bytes.Equal(gotSnaps[i], snaps[i]) {
			t.Fatalf("snap %d changed: %q -> %q", i, snaps[i], gotSnaps[i])
		}
	}
	if !reflect.DeepEqual(gotFired, fired) {
		t.Fatalf("fired windows changed: %v -> %v", fired, gotFired)
	}

	// Empty fired queue round-trips as empty.
	if _, gotFired, err = decodeShardSnaps(encodeShardSnaps(snaps, nil)); err != nil || len(gotFired) != 0 {
		t.Fatalf("empty queue round trip: fired=%v err=%v", gotFired, err)
	}

	// A frame of the retired v1 format (no fired-window queue) is
	// rejected: only shardsnaps2 is ever written.
	v1 := []byte("flowkv-shardsnaps1\n")
	v1 = binio.PutUvarint(v1, uint64(len(snaps)))
	for _, s := range snaps {
		v1 = binio.PutBytes(v1, s)
	}
	if _, _, err := decodeShardSnaps(v1); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v1 frame: err = %v, want bad magic", err)
	}

	// Corruption must be rejected, not panic.
	if _, _, err := decodeShardSnaps(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, _, err := decodeShardSnaps([]byte("not a frame")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSharedDropsReseedFired: a committed fired-window queue reseeded
// into a fresh tracker must unlink exactly those windows once the
// stage-min watermark passes their end — the orphan-window leak the v2
// frame exists to close.
func TestSharedDropsReseedFired(t *testing.T) {
	var dropped []window.Window
	d := newSharedDrops(2, func(w window.Window) error {
		dropped = append(dropped, w)
		return nil
	})
	// Restored watermarks: both workers committed at wm=50.
	d.reseedWM(0, 50)
	d.reseedWM(1, 50)
	// Committed queue: {0,40} already due (end <= 50), {100,140} not.
	d.reseedFired([]window.Window{{Start: 0, End: 40}, {Start: 100, End: 140}})

	if err := d.noteWM(0, 60); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != (window.Window{Start: 0, End: 40}) {
		t.Fatalf("after first watermark: dropped %v, want [{0 40}]", dropped)
	}
	// The second window stays until BOTH workers pass its end.
	if err := d.noteWM(0, 200); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 {
		t.Fatalf("window dropped before stage-min watermark passed: %v", dropped)
	}
	if err := d.noteWM(1, 200); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 || dropped[1] != (window.Window{Start: 100, End: 140}) {
		t.Fatalf("after both watermarks: dropped %v", dropped)
	}
	// snapshotFired sorts canonically and reflects only the live queue.
	d.reseedFired([]window.Window{{Start: 300, End: 360}, {Start: 200, End: 260}})
	got := d.snapshotFired()
	want := []window.Window{{Start: 200, End: 260}, {Start: 300, End: 360}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshotFired = %v, want %v", got, want)
	}
}

// TestJobDegradedCheckpointTimeout: with no healer running, a store
// degraded mid-checkpoint can never return to Healthy, and the default
// SelfHeal wait would just report the raw flush error after it expires. DegradedCheckpointTimeout instead converts the expired wait
// into a typed *Halt wrapping ErrCheckpointTimeout that names the
// failing stage and backend — and the job stays resumable.
func TestJobDegradedCheckpointTimeout(t *testing.T) {
	tuples := crashTuples(400)
	const every = 61
	pat := crashPatterns()[1] // AUR
	golden := goldenLedger(t, pat, tuples, every, 1<<20)
	base := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	job := &Job{
		Pipeline:                  crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<20),
		Source:                    NewSliceSource(tuples),
		Dir:                       filepath.Join(base, "job"),
		CheckpointEvery:           every,
		DegradedCheckpointTimeout: 50 * time.Millisecond,
	}
	// Arm a persistent write fault once ingest is underway: the large
	// write buffer confines it to the checkpoint flush, which degrades
	// the store; nothing ever heals it.
	job.Pipeline.StatsEvery = 30
	armed := false
	job.Pipeline.OnStats = func(StatsReport) {
		if !armed {
			armed = true
			inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "state",
				Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
		}
	}
	res, err := job.Run()
	if err == nil {
		t.Fatal("run with unhealable degraded store succeeded")
	}
	if !errors.Is(err, ErrCheckpointTimeout) {
		t.Fatalf("error = %v, want ErrCheckpointTimeout cause", err)
	}
	var halt *Halt
	if !errors.As(err, &halt) {
		t.Fatalf("error %T is not a typed *Halt", err)
	}
	if halt.Stage != "win" || halt.Backend != "flowkv" {
		t.Fatalf("halt = %+v, want stage win backend flowkv", halt)
	}
	if res.Halted == nil || !errors.Is(res.Halted, ErrCheckpointTimeout) {
		t.Fatalf("result.Halted = %v, want typed checkpoint-timeout halt", res.Halted)
	}
	if res.Final {
		t.Fatal("halted run reported final")
	}

	// The halt committed nothing past the fault: clearing it and
	// resuming must finish with the golden ledger exactly.
	inj.Reset()
	resumeToFinal(t, func(int64) *Job {
		return &Job{
			Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<20),
			Source:          NewSliceSource(tuples),
			Dir:             filepath.Join(base, "job"),
			CheckpointEvery: every,
		}
	}, golden)
}
