package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// TenantDemoOutcome is the multi-tenant demo's result: the persisted
// per-tenant stats and pool status (what `flowkvctl tenants` renders),
// plus the demo's own verdicts.
type TenantDemoOutcome struct {
	// Dir is the manager directory holding TENANTS.json and the
	// per-tenant job state; point `flowkvctl tenants` at it.
	Dir     string                  `json:"dir"`
	Tenants []jobmanager.Stats      `json:"tenants"`
	Slots   []jobmanager.SlotStatus `json:"slots"`
	// VictimExactlyOnce reports the well-behaved tenant's ledger matched
	// a standalone golden run byte for byte despite the contention and
	// the injected slot failure.
	VictimExactlyOnce bool `json:"victim_exactly_once"`
	// Failovers is the total number of tenant moves off the faulted
	// slot.
	Failovers int64 `json:"failovers"`
	// Failed/FailReason flag a demo that did not meet its own SLOs.
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
}

// demoTuples synthesizes the demo's deterministic keyed stream.
func demoTuples(n int) []spe.Tuple {
	tuples := make([]spe.Tuple, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(1 + i%3)
		if i%97 == 0 {
			ts += 300
		}
		tuples = append(tuples, spe.Tuple{
			Key:   []byte(fmt.Sprintf("k%02d", i%11)),
			Value: []byte(strconv.Itoa(i % 13)),
			TS:    ts,
		})
	}
	return tuples
}

// demoPipeline is the tenants' shared two-stage template; backends are
// filled in by the job manager.
func demoPipeline() *spe.Pipeline {
	sum := spe.HolisticFunc(func(key []byte, values [][]byte) []byte {
		s := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			s += n
		}
		return []byte(fmt.Sprintf("n=%d sum=%d", len(values), s))
	})
	return &spe.Pipeline{
		WatermarkEvery: 25,
		Stages: []spe.Stage{
			{
				Name: "tag", Parallelism: 2,
				Map: func(t spe.Tuple, emit func(spe.Tuple)) { emit(t) },
			},
			{
				Name: "win", Parallelism: 2,
				Window: &spe.OperatorSpec{
					Assigner: window.FixedAssigner{Size: 64},
					Holistic: sum,
				},
			},
		},
	}
}

func demoBackend(tenantID string) func(jobmanager.Slot, int, int) (statebackend.Backend, error) {
	return jobmanager.FlowKVBackend(tenantID, core.AggHolistic, window.Fixed,
		window.FixedAssigner{Size: 64}, core.Options{Instances: 2, WriteBufferBytes: 1 << 14})
}

// demoGolden runs the victim's workload standalone — no manager, no
// quota, no faults — and returns its committed ledger bytes.
func demoGolden(base string, tuples []spe.Tuple, every int) ([]byte, error) {
	p := demoPipeline()
	mk := demoBackend("golden")
	slot := jobmanager.Slot{ID: "golden", Dir: filepath.Join(base, "state")}
	for i := range p.Stages {
		if p.Stages[i].Window == nil {
			continue
		}
		si := i
		p.Stages[i].NewBackend = func(w int) (statebackend.Backend, error) {
			return mk(slot, si, w)
		}
	}
	job := &spe.Job{
		Pipeline:        p,
		Source:          spe.NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: every,
	}
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	if !res.Final {
		return nil, fmt.Errorf("harness: golden tenant run did not finish")
	}
	return os.ReadFile(filepath.Join(base, "job", "SINK.log"))
}

// armOnceSource arms a fault injector after the stream passes trigger.
type armOnceSource struct {
	*spe.SliceSource
	trigger int64
	armed   bool
	arm     func()
}

func (a *armOnceSource) Next() (spe.Tuple, bool) {
	t, ok := a.SliceSource.Next()
	if ok && !a.armed && a.SliceSource.Offset() > a.trigger {
		a.armed = true
		a.arm()
	}
	return t, ok
}

// TenantDemo runs the multi-tenant noisy-neighbor demo behind
// `flowbench -tenants N`: one well-behaved victim tenant under its
// quota shares a three-slot store pool with N tenants over-submitting
// roughly 10x their quota, while one slot's stores are forced into
// Failed mid-run by fault injection. The demo proves the victim's
// admission SLO held, its ledger stayed byte-identical exactly-once,
// every tenant completed, and the faulted slot's tenants failed over.
func TenantDemo(sc Scale, noisy int, w io.Writer) (TenantDemoOutcome, error) {
	if noisy < 1 {
		noisy = 1
	}
	every := 100
	victimTuples := demoTuples(max(sc.Events/10, 1_000))
	noisyCount := max(sc.Events/10, 1_000)

	out := TenantDemoOutcome{Dir: filepath.Join(sc.BaseDir, "tenants", "mgr")}
	golden, err := demoGolden(filepath.Join(sc.BaseDir, "tenants", "golden"), victimTuples, every)
	if err != nil {
		return out, err
	}

	injs := map[string]*faultfs.Injector{}
	var slots []jobmanager.Slot
	for _, id := range []string{"slot0", "slot1", "slot2"} {
		inj := faultfs.NewInjector(faultfs.OS)
		injs[id] = inj
		slots = append(slots, jobmanager.Slot{
			ID: id, Dir: filepath.Join(sc.BaseDir, "tenants", id), FS: inj,
		})
	}
	m, err := jobmanager.New(jobmanager.Options{
		Dir:                       out.Dir,
		Slots:                     slots,
		DegradedCheckpointTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		return out, err
	}

	// The victim's source doubles as the fault trigger: a third of the
	// way into its stream, the disk under whichever slot is hosting the
	// victim starts failing every write. The rule is scoped to that
	// slot's directory: store I/O fails (degrading, then retiring the
	// slot), while checkpoint files in the manager-side job directory
	// stay writable — that distinction is what lets the halted tenant
	// leave its committed state intact and resume elsewhere.
	arm := func() {
		stats, _ := m.Snapshot()
		for _, s := range stats {
			if s.Tenant != "victim" || s.Slot == "" {
				continue
			}
			injs[s.Slot].SetRule(faultfs.Rule{
				Op:           faultfs.OpWrite,
				Class:        faultfs.ClassPersistent,
				Err:          faultfs.ErrDiskIO,
				PathContains: s.Slot,
			})
		}
	}
	victimSrc := &armOnceSource{
		SliceSource: spe.NewSliceSource(victimTuples),
		trigger:     int64(len(victimTuples) / 3),
		arm:         arm,
	}
	err = m.Submit(jobmanager.Tenant{
		ID:              "victim",
		Quota:           jobmanager.Quota{IngestEPS: 1_000_000, WriteBPS: 64 << 20},
		Source:          victimSrc,
		Pipeline:        demoPipeline(),
		MakeBackend:     demoBackend("victim"),
		CheckpointEvery: every,
	})
	if err != nil {
		return out, err
	}
	for i := 0; i < noisy; i++ {
		id := fmt.Sprintf("noisy%d", i)
		// Quota sized so draining the full stream would take ~10x longer
		// than the tenant is willing to wait: the burst admits, the tail
		// sheds.
		rate := float64(noisyCount) / 10
		err = m.Submit(jobmanager.Tenant{
			ID: id,
			Quota: jobmanager.Quota{
				IngestEPS:      rate,
				IngestBurst:    rate / 2,
				MaxIngestDelay: 2 * time.Millisecond,
				WriteBPS:       256 << 10,
				WriteBurst:     4 << 10,
			},
			Source:          spe.NewSliceSource(demoTuples(noisyCount)),
			Pipeline:        demoPipeline(),
			MakeBackend:     demoBackend(id),
			CheckpointEvery: every,
		})
		if err != nil {
			return out, err
		}
	}

	results := m.Wait()
	out.Tenants, out.Slots = m.Snapshot()

	fprintf(w, "%-8s %-7s %-6s %9s %9s %8s %10s %7s %9s %6s\n",
		"tenant", "state", "slot", "admitted", "throttled", "shed", "admit-p99", "stalls", "failover", "ckpts")
	for _, s := range out.Tenants {
		fprintf(w, "%-8s %-7s %-6s %9d %9d %8d %10v %7d %9d %6d\n",
			s.Tenant, s.State, s.Slot, s.Admitted, s.Throttled, s.Shed,
			s.AdmitP99.Round(time.Microsecond), s.WriteStalls, s.Failovers, s.Checkpoints)
	}
	for _, s := range out.Slots {
		health := "healthy"
		if !s.Healthy {
			health = "FAILED"
		}
		fprintf(w, "slot %-6s %-8s tenants=%v failovers=%d %s\n", s.ID, health, s.Tenants, s.Failovers, s.Err)
		out.Failovers += s.Failovers
	}

	fail := func(format string, args ...any) {
		if !out.Failed {
			out.Failed = true
			out.FailReason = fmt.Sprintf(format, args...)
		}
	}
	for id, r := range results {
		if r.Err != nil {
			fail("tenant %s: %v", id, r.Err)
		} else if !r.Result.Final {
			fail("tenant %s did not reach final commit", id)
		}
	}
	if v := results["victim"]; v != nil && v.Err == nil {
		if v.Stats.Shed != 0 {
			fail("victim shed %d tuples", v.Stats.Shed)
		}
		if slo := 100 * time.Millisecond; v.Stats.AdmitP99 > slo {
			fail("victim admit p99 %v exceeds SLO %v", v.Stats.AdmitP99, slo)
		}
		ledger, err := os.ReadFile(filepath.Join(m.TenantDir("victim"), "job", "SINK.log"))
		if err != nil {
			fail("victim ledger: %v", err)
		} else {
			out.VictimExactlyOnce = bytes.Equal(ledger, golden)
			if !out.VictimExactlyOnce {
				fail("victim ledger diverged from the golden run (%d vs %d bytes)", len(ledger), len(golden))
			}
		}
	}
	if out.Failovers == 0 {
		fail("no tenant failed over off the faulted slot")
	}
	fprintf(w, "victim exactly-once across slot failure: %v\n", out.VictimExactlyOnce)
	if out.Failed {
		return out, fmt.Errorf("harness: tenant demo failed: %s", out.FailReason)
	}
	return out, nil
}
