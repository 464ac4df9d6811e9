package spe

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"flowkv/internal/faultfs"
)

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
