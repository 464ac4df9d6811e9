package jobmanager

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager/limit"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// noisyTenants returns the misbehaving-tenant count for the battery:
// 4 by default (the PR gate), FLOWKV_TENANT_NOISY raises it for the
// nightly run.
func noisyTenants(t *testing.T) int {
	t.Helper()
	n := 4
	if v := os.Getenv("FLOWKV_TENANT_NOISY"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			t.Fatalf("bad FLOWKV_TENANT_NOISY=%q", v)
		}
		n = parsed
	}
	return n
}

// batteryTuples builds a deterministic keyed stream with watermark
// jumps, mirroring the spe crash battery's shape.
func batteryTuples(n int) []spe.Tuple {
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

// batterySum is order-independent (count + sum), so ledger bytes do not
// depend on store value ordering.
var batterySum = spe.HolisticFunc(func(key []byte, values [][]byte) []byte {
	sum := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		sum += n
	}
	return []byte(fmt.Sprintf("n=%d sum=%d", len(values), sum))
})

// batteryPipeline is the tenants' two-stage template: a stateless map
// feeding a parallelism-2 FlowKV fixed-window aggregation. Backends are
// left nil — the manager fills them from MakeBackend.
func batteryPipeline() *spe.Pipeline {
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
					Holistic: batterySum,
				},
			},
		},
	}
}

// batteryBackend is the battery's MakeBackend for one tenant.
func batteryBackend(tenantID string) func(Slot, int, int) (statebackend.Backend, error) {
	return FlowKVBackend(tenantID, core.AggHolistic, window.Fixed, window.FixedAssigner{Size: 64},
		core.Options{Instances: 2, WriteBufferBytes: 1 << 10})
}

// goldenLedger runs the battery pipeline standalone (no manager, no
// quotas) over tuples and returns the committed SINK.log bytes — the
// exactly-once reference a managed tenant must match byte for byte.
func goldenLedger(t *testing.T, tuples []spe.Tuple, every int) []byte {
	t.Helper()
	base := t.TempDir()
	p := batteryPipeline()
	mk := batteryBackend("golden")
	slot := Slot{ID: "golden", Dir: filepath.Join(base, "state"), FS: faultfs.OS}
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
	if err != nil || !res.Final {
		t.Fatalf("golden run: final=%v err=%v", res != nil && res.Final, err)
	}
	b, err := os.ReadFile(filepath.Join(base, "job", "SINK.log"))
	if err != nil || len(b) == 0 {
		t.Fatalf("golden ledger: len=%d err=%v", len(b), err)
	}
	return b
}

// tenantLedger reads a managed tenant's committed ledger bytes.
func tenantLedger(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(m.TenantDir(id), "job", "SINK.log"))
	if err != nil {
		t.Fatalf("tenant %s ledger: %v", id, err)
	}
	return b
}

func newBatteryManager(t *testing.T, nSlots int, fs map[int]faultfs.FS, dct time.Duration) *Manager {
	t.Helper()
	base := t.TempDir()
	slots := make([]Slot, 0, nSlots)
	for i := 0; i < nSlots; i++ {
		s := Slot{ID: fmt.Sprintf("slot%d", i), Dir: filepath.Join(base, fmt.Sprintf("slot%d", i))}
		if fs != nil {
			s.FS = fs[i]
		}
		slots = append(slots, s)
	}
	m, err := New(Options{
		Dir:                       filepath.Join(base, "mgr"),
		Slots:                     slots,
		DegradedCheckpointTimeout: dct,
	})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	return m
}

// TestNoisyNeighborBattery is the acceptance battery: N tenants
// over-submit their ingest quota 10x while one well-behaved victim runs
// under quota on the same slot pool. The victim must finish with an
// exactly-once, byte-identical ledger and its admission-latency SLO
// intact; the noisy tenants must be the ones throttled and shed.
func TestNoisyNeighborBattery(t *testing.T) {
	noisy := noisyTenants(t)
	every := 100
	victimTuples := batteryTuples(600)
	golden := goldenLedger(t, victimTuples, every)

	m := newBatteryManager(t, 3, nil, 0)

	// Victim: quota far above its own offered load, pure backpressure
	// (never sheds) so its ledger stays deterministic.
	victim := Tenant{
		ID:              "victim",
		Quota:           Quota{IngestEPS: 50_000, WriteBPS: 8 << 20},
		Source:          spe.NewSliceSource(victimTuples),
		Pipeline:        batteryPipeline(),
		MakeBackend:     batteryBackend("victim"),
		CheckpointEvery: every,
	}
	if err := m.Submit(victim); err != nil {
		t.Fatalf("submit victim: %v", err)
	}

	// Noisy tenants: each offers its whole stream instantly against a
	// quota sized so draining it within MaxIngestDelay would take 10x
	// longer — over-quota tuples past the burst are shed.
	noisyCount := 1000
	for i := 0; i < noisy; i++ {
		id := fmt.Sprintf("noisy%d", i)
		// At 100 eps a post-burst tuple waits ~10ms for its token —
		// past MaxIngestDelay, so the over-submitted tail sheds.
		q := Quota{
			IngestEPS:      100,
			IngestBurst:    50,
			MaxIngestDelay: 2 * time.Millisecond,
			// Tight enough that the burst-admitted tuples' writes (which
			// cluster at the front of the run) overrun the burst and stall.
			WriteBPS:   2000,
			WriteBurst: 32,
		}
		if err := m.Submit(Tenant{
			ID:              id,
			Quota:           q,
			Source:          spe.NewSliceSource(batteryTuples(noisyCount)),
			Pipeline:        batteryPipeline(),
			MakeBackend:     batteryBackend(id),
			CheckpointEvery: every,
		}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}

	results := m.Wait()
	if len(results) != noisy+1 {
		t.Fatalf("got %d results, want %d", len(results), noisy+1)
	}

	v := results["victim"]
	if v.Err != nil {
		t.Fatalf("victim failed: %v", v.Err)
	}
	if !v.Result.Final {
		t.Fatal("victim did not reach final commit")
	}
	if v.Stats.Shed != 0 {
		t.Fatalf("victim shed %d tuples; SLO tenants never shed", v.Stats.Shed)
	}
	if v.Stats.Admitted != int64(len(victimTuples)) {
		t.Fatalf("victim admitted %d of %d tuples", v.Stats.Admitted, len(victimTuples))
	}
	// The victim's admission SLO: under its own quota, p99 admit latency
	// stays (far) below 50ms no matter how hard the neighbors push.
	if slo := 50 * time.Millisecond; v.Stats.AdmitP99 > slo {
		t.Fatalf("victim admit p99 %v exceeds SLO %v", v.Stats.AdmitP99, slo)
	}
	if got := tenantLedger(t, m, "victim"); !bytes.Equal(got, golden) {
		t.Fatalf("victim ledger diverged under contention: got %d bytes, want %d", len(got), len(golden))
	}

	for i := 0; i < noisy; i++ {
		id := fmt.Sprintf("noisy%d", i)
		r := results[id]
		if r.Err != nil {
			t.Fatalf("%s failed: %v", id, r.Err)
		}
		if !r.Result.Final {
			t.Fatalf("%s did not reach final commit", id)
		}
		s := r.Stats
		if s.Admitted+s.Shed != int64(noisyCount) {
			t.Fatalf("%s admitted %d + shed %d != offered %d", id, s.Admitted, s.Shed, noisyCount)
		}
		if s.Shed == 0 {
			t.Fatalf("%s over-submitted 10x its quota but shed nothing (admitted %d)", id, s.Admitted)
		}
		if s.Admitted == 0 {
			t.Fatalf("%s burst allowance admitted nothing", id)
		}
		if s.WriteBytes == 0 {
			t.Fatalf("%s store writes were not metered", id)
		}
		if s.WriteStalls == 0 {
			t.Fatalf("%s wrote %d bytes against a 32-byte burst without a stall", id, s.WriteBytes)
		}
	}

	// The persisted snapshot (flowkvctl tenants' input) reflects it all.
	doc, err := ReadTenantsFile(filepath.Join(m.opts.Dir))
	if err != nil {
		t.Fatalf("TENANTS.json: %v", err)
	}
	if len(doc.Tenants) != noisy+1 || len(doc.Slots) != 3 {
		t.Fatalf("TENANTS.json holds %d tenants / %d slots", len(doc.Tenants), len(doc.Slots))
	}
	if doc.Tenants[0].Tenant != "victim" || doc.Tenants[0].State != "done" {
		t.Fatalf("TENANTS.json[0] = %+v, want victim done", doc.Tenants[0])
	}
	for _, s := range doc.Slots {
		if !s.Healthy {
			t.Fatalf("slot %s unhealthy in a fault-free battery: %s", s.ID, s.Err)
		}
	}
}

// armAtSource wraps a SliceSource and arms a fault rule once the stream
// passes the trigger offset — after several checkpoint generations have
// committed, so the failover leg exercises a real restore.
type armAtSource struct {
	*spe.SliceSource
	trigger int64
	arm     func()
	once    sync.Once
}

func (a *armAtSource) Next() (spe.Tuple, bool) {
	t, ok := a.SliceSource.Next()
	if ok && a.SliceSource.Offset() > a.trigger {
		a.once.Do(a.arm)
	}
	return t, ok
}

// TestFailoverOnBackendFailure forces one pool slot's stores into
// Failed via persistent fault injection mid-run: the tenant placed
// there must halt with a typed backend halt, fail over to the healthy
// slot, resume from its committed checkpoint, and finish with the
// byte-identical exactly-once ledger. The co-tenant on the healthy slot
// must be untouched.
func TestFailoverOnBackendFailure(t *testing.T) {
	every := 50
	tuples := batteryTuples(600)
	golden := goldenLedger(t, tuples, every)

	inj := faultfs.NewInjector(faultfs.OS)
	m := newBatteryManager(t, 2, map[int]faultfs.FS{0: inj}, 100*time.Millisecond)

	// Scoped to the slot's directory: store I/O fails while the job
	// directory (checkpoints, ledger) stays writable, mirroring a bad
	// disk under one pooled store rather than total filesystem loss.
	arm := func() {
		inj.SetRule(faultfs.Rule{
			Op:           faultfs.OpWrite,
			Class:        faultfs.ClassPersistent,
			Err:          faultfs.ErrDiskIO,
			PathContains: "slot0",
		})
	}
	for _, id := range []string{"tenant-a", "tenant-b"} {
		src := &armAtSource{SliceSource: spe.NewSliceSource(tuples), trigger: 200, arm: arm}
		if err := m.Submit(Tenant{
			ID:              id,
			Source:          src,
			Pipeline:        batteryPipeline(),
			MakeBackend:     batteryBackend(id),
			CheckpointEvery: every,
		}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}

	results := m.Wait()
	var failedOver []string
	for id, r := range results {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", id, r.Err)
		}
		if !r.Result.Final {
			t.Fatalf("%s did not reach final commit", id)
		}
		if got := tenantLedger(t, m, id); !bytes.Equal(got, golden) {
			t.Fatalf("%s ledger diverged across failover: got %d bytes, want %d", id, len(got), len(golden))
		}
		if r.Stats.Failovers > 0 {
			failedOver = append(failedOver, id)
			if r.Stats.Slot != "slot1" {
				t.Fatalf("%s failed over to %q, want slot1", id, r.Stats.Slot)
			}
		}
	}
	// Exactly the tenant placed on the faulted slot moved.
	if len(failedOver) != 1 {
		t.Fatalf("tenants that failed over: %v, want exactly one", failedOver)
	}

	status := m.Pool().Status()
	byID := map[string]SlotStatus{}
	for _, s := range status {
		byID[s.ID] = s
	}
	if byID["slot0"].Healthy {
		t.Fatal("slot0 still marked healthy after persistent write faults")
	}
	if byID["slot0"].Err == "" {
		t.Fatal("slot0 retired without a recorded cause")
	}
	if byID["slot0"].Failovers != 1 {
		t.Fatalf("slot0 failovers = %d, want 1", byID["slot0"].Failovers)
	}
	if !byID["slot1"].Healthy {
		t.Fatal("slot1 should have stayed healthy")
	}
}

// TestPoolPlacement covers the registry: least-loaded placement,
// exclusion, failed-slot avoidance, and exhaustion.
func TestPoolPlacement(t *testing.T) {
	p, err := NewPool([]Slot{{ID: "a", Dir: "a"}, {ID: "b", Dir: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Acquire("t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Acquire("t2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID == s2.ID {
		t.Fatalf("both tenants on %s; want least-loaded spread", s1.ID)
	}
	// Excluding the emptier slot forces the other.
	p.Release("t2", s2.ID)
	s3, err := p.Acquire("t3", map[string]bool{s2.ID: true})
	if err != nil || s3.ID != s1.ID {
		t.Fatalf("exclusion ignored: got %q err=%v", s3.ID, err)
	}
	p.MarkFailed(s1.ID, fmt.Errorf("boom"))
	s4, err := p.Acquire("t4", nil)
	if err != nil || s4.ID != s2.ID {
		t.Fatalf("failed slot not avoided: got %q err=%v", s4.ID, err)
	}
	if _, err := p.Acquire("t5", map[string]bool{s2.ID: true}); err == nil {
		t.Fatal("acquire succeeded with every slot failed or excluded")
	}
	// Observe(Failed) retires; Observe(Degraded) does not.
	p.MarkHealthy(s1.ID)
	p.Observe(s1.ID, core.Degraded, core.ReasonError, fmt.Errorf("soft"))
	if _, err := p.Acquire("t6", map[string]bool{s2.ID: true}); err != nil {
		t.Fatalf("degraded slot should still place: %v", err)
	}
	p.Observe(s1.ID, core.Failed, core.ReasonError, fmt.Errorf("hard"))
	if _, err := p.Acquire("t7", map[string]bool{s2.ID: true}); err == nil {
		t.Fatal("failed slot placed a tenant")
	}
}

// TestAdmittedSourceDecisions pins the three admission outcomes
// (immediate, throttled, shed) and their accounting, with sleeps
// captured instead of served.
func TestAdmittedSourceDecisions(t *testing.T) {
	mkSrc := func(n int) *spe.SliceSource { return spe.NewSliceSource(batteryTuples(n)) }

	t.Run("shed beyond max delay", func(t *testing.T) {
		lim, err := limit.NewTokenBucket(limit.Config{Rate: 1, Burst: 1})
		if err != nil {
			t.Fatal(err)
		}
		stats := newTenantStats()
		var slept []time.Duration
		src := newAdmittedSource(mkSrc(5), lim, 50*time.Millisecond, stats, func(d time.Duration) { slept = append(slept, d) })
		n := 0
		for {
			_, ok := src.Next()
			if !ok {
				break
			}
			n++
		}
		if n != 1 || stats.admitted.Load() != 1 {
			t.Fatalf("admitted %d tuples, want 1 (burst)", n)
		}
		if stats.shed.Load() != 4 {
			t.Fatalf("shed %d, want 4", stats.shed.Load())
		}
		if len(slept) != 0 {
			t.Fatalf("shed path slept: %v", slept)
		}
	})

	t.Run("backpressure never sheds", func(t *testing.T) {
		lim, err := limit.NewTokenBucket(limit.Config{Rate: 1000, Burst: 1})
		if err != nil {
			t.Fatal(err)
		}
		stats := newTenantStats()
		var slept []time.Duration
		src := newAdmittedSource(mkSrc(5), lim, -1, stats, func(d time.Duration) { slept = append(slept, d) })
		n := 0
		for {
			_, ok := src.Next()
			if !ok {
				break
			}
			n++
		}
		if n != 5 || stats.admitted.Load() != 5 || stats.shed.Load() != 0 {
			t.Fatalf("admitted=%d shed=%d, want 5/0", stats.admitted.Load(), stats.shed.Load())
		}
		if stats.throttled.Load() == 0 || len(slept) == 0 {
			t.Fatalf("over-quota stream admitted without waits (throttled=%d)", stats.throttled.Load())
		}
		if p99 := stats.admitLat.P99(); p99 <= 0 {
			t.Fatalf("admit latency histogram empty (p99=%v)", p99)
		}
	})
}

// TestLimitedBackendMetersWrites pins the write choke point: payload
// bytes are charged, oversize writes are admitted in shrinking chunks,
// and stalls are counted — never shed.
func TestLimitedBackendMetersWrites(t *testing.T) {
	b, err := statebackend.Open(statebackend.Config{
		Kind:       statebackend.KindFlowKV,
		Dir:        t.TempDir(),
		Agg:        core.AggHolistic,
		WindowKind: window.Fixed,
		Assigner:   window.FixedAssigner{Size: 64},
		FlowKV:     core.Options{Instances: 1, WriteBufferBytes: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	lim, err := limit.NewTokenBucket(limit.Config{Rate: 1000, Burst: 32})
	if err != nil {
		t.Fatal(err)
	}
	stats := newTenantStats()
	var slept time.Duration
	lb := newLimitedBackend(b, lim, stats, func(d time.Duration) { slept += d })

	w := window.Window{Start: 0, End: 64}
	// 3-byte key + 61-byte value = 64 bytes: double the 32-byte burst,
	// admitted in shrinking chunks with stalls.
	if err := lb.Append([]byte("key"), bytes.Repeat([]byte("v"), 61), w, 1); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := stats.bytesIn.Load(); got != 64 {
		t.Fatalf("charged %d bytes, want 64", got)
	}
	if stats.bytesSlow.Load() == 0 || slept == 0 {
		t.Fatalf("oversize write admitted with no stall (stalls=%d slept=%v)", stats.bytesSlow.Load(), slept)
	}
	// Capability probes reach through the wrapper.
	if _, ok := statebackend.AsCheckpointer(lb); !ok {
		t.Fatal("limitedBackend hides the Checkpointer capability")
	}
}
