package core

// The error-injection battery: every mutating filesystem operation kind
// is failed — once, transiently, persistently, with ENOSPC, and with a
// torn write — against all three store patterns, and after the fault
// clears the store must uphold the acked-write contract: every write
// that was acknowledged is readable again, or the store loudly reports a
// non-Healthy state. Silent loss is the one outcome that must never
// happen, and TestFaultBatteryDetectsBrokenReattach proves the battery
// can actually see it by re-running with the flush re-attach logic
// deliberately disabled.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// batteryValuePad makes every value large enough that a store flush
// crosses the logfile's internal 256KiB write buffer, so injected write
// faults fire in the middle of a flush batch — the hardest atomicity
// case: some records of the batch land, the rest must be re-attached to
// the write buffer.
var batteryValuePad = strings.Repeat("x", 32<<10)

func batteryWindow(n int) window.Window {
	return window.Window{Start: int64(n) * 100, End: int64(n)*100 + 100}
}

type faultCase struct {
	name string
	rule faultfs.Rule
	// expectHealthy marks a fault the store must fully absorb (transient
	// read errors): no operation may fail and the store stays Healthy.
	expectHealthy bool
}

func faultScenarios() []faultCase {
	return []faultCase{
		{name: "sync-persistent",
			rule: faultfs.Rule{Op: faultfs.OpSync, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO}},
		{name: "write-transient",
			rule: faultfs.Rule{Op: faultfs.OpWrite, Class: faultfs.ClassTransient, Times: 2, Err: faultfs.ErrDiskIO}},
		{name: "write-persistent",
			rule: faultfs.Rule{Op: faultfs.OpWrite, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO}},
		{name: "enospc-any",
			rule: faultfs.Rule{Op: faultfs.OpAny, Class: faultfs.ClassPersistent, Err: faultfs.ErrNoSpace}},
		{name: "torn-write",
			rule: faultfs.Rule{Op: faultfs.OpWrite, TornBytes: 7}},
		{name: "read-transient",
			rule:          faultfs.Rule{Op: faultfs.OpRead, Class: faultfs.ClassTransient, Times: 2, Err: faultfs.ErrDiskIO},
			expectHealthy: true},
		// Single-shot sweep over every remaining mutating op kind; the
		// phase-B flush + checkpoint exercises each of them at least once.
		{name: "once-create", rule: faultfs.Rule{Op: faultfs.OpCreate}},
		{name: "once-sync", rule: faultfs.Rule{Op: faultfs.OpSync}},
		{name: "once-write", rule: faultfs.Rule{Op: faultfs.OpWrite}},
		{name: "once-remove", rule: faultfs.Rule{Op: faultfs.OpRemove}},
		{name: "once-rename", rule: faultfs.Rule{Op: faultfs.OpRename}},
		{name: "once-mkdir", rule: faultfs.Rule{Op: faultfs.OpMkdir}},
	}
}

// runFaultCase drives one pattern through one injection scenario and
// returns descriptions of acked writes that were silently lost (the
// store claimed Healthy but could not serve them). It reports loss
// instead of failing so the deliberately-broken variant can assert the
// battery detects it. Everything else — an unrecoverable store, a read
// failure after recovery — fails the test directly.
func runFaultCase(t *testing.T, p Pattern, fc faultCase) (lost []string) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS)
	agg, wk, opts := crashConfig(p)
	opts.Instances = 2
	opts.WriteBufferBytes = 2 << 20 // 1MiB per instance: no auto-flush mid-phase
	opts.ReadRetryBackoff = 50 * time.Microsecond
	opts.FS = inj
	base := t.TempDir()
	opts.Dir = filepath.Join(base, "store")
	s, err := Open(agg, wk, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	// Oracles. AAR/AUR: acked appended values per (window, key). RMW:
	// the last acked aggregate per (window, key) plus every value
	// attempted after it — an unacked Put may still have been applied,
	// so any of those is a legal readback, but a value older than the
	// last ack is loss.
	type ident struct {
		w   window.Window
		key string
	}
	acked := make(map[window.Window]map[string][]string)
	lastAcked := make(map[ident]string)
	later := make(map[ident]map[string]bool)
	seq := 0
	write := func(wi int, key string) error {
		w := batteryWindow(wi)
		val := fmt.Sprintf("%s|w%d|s%04d|%s", key, wi, seq, batteryValuePad)
		seq++
		if p == PatternRMW {
			err := s.PutAggregate([]byte(key), w, []byte(val))
			id := ident{w, key}
			if err == nil {
				lastAcked[id] = val
				delete(later, id)
			} else {
				if later[id] == nil {
					later[id] = make(map[string]bool)
				}
				later[id][val] = true
			}
			return err
		}
		err := s.Append([]byte(key), []byte(val), w, w.Start)
		if err == nil {
			if acked[w] == nil {
				acked[w] = make(map[string][]string)
			}
			acked[w][key] = append(acked[w][key], val)
		}
		return err
	}

	// Phase A: a durable baseline; every write must ack.
	for wi := 0; wi < 3; wi++ {
		for k := 0; k < 6; k++ {
			if err := write(wi, fmt.Sprintf("key-%d", k)); err != nil {
				t.Fatalf("phase A write: %v", err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("phase A sync: %v", err)
	}

	// Phase B: writes under fire. Windows 3..5 are new (their AAR log
	// files do not exist yet, exercising create failures); 0..2 extend
	// existing state. Errors are legal — but err == nil is a promise.
	inj.SetRule(fc.rule)
	for wi := 0; wi < 6; wi++ {
		for k := 0; k < 6; k++ {
			_ = write(wi, fmt.Sprintf("key-%d", k))
		}
	}
	_ = s.Flush()
	_ = s.Sync()
	if fc.rule.Op != faultfs.OpRead {
		// Exercises create/mkdir/rename/remove/sync against the
		// checkpoint machinery too; a failed checkpoint must not hurt
		// the live store.
		_ = s.Checkpoint(filepath.Join(base, "ckpt"))
	}

	if fc.rule.Op != faultfs.OpRead {
		if !inj.Fired() {
			t.Fatalf("case %s: rule never fired — scenario tests nothing", fc.name)
		}
		inj.Reset()
		if s.Health() != Healthy {
			if err := s.Recover(); err != nil {
				t.Fatalf("case %s: recover: %v (health %v)", fc.name, err, s.Health())
			}
		}
		if got := s.Health(); got != Healthy {
			t.Fatalf("case %s: health after recover = %v", fc.name, got)
		}
	}

	// Phase C: readback. Every acked write must be present; extras
	// (buffered writes whose ack failed in flight) are fine.
	shorten := func(v string) string {
		if i := strings.Index(v, "|"+batteryValuePad[:1]); i > 0 && len(v) > 40 {
			return v[:40]
		}
		return v
	}
	switch p {
	case PatternAAR:
		for wi := 0; wi < 6; wi++ {
			w := batteryWindow(wi)
			got := make(map[string]int)
			for {
				part, err := s.GetWindow(w)
				if err != nil {
					t.Fatalf("case %s: GetWindow(%v): %v", fc.name, w, err)
				}
				if part == nil {
					break
				}
				for _, kv := range part {
					for _, v := range kv.Values {
						got[string(kv.Key)+"\x00"+string(v)]++
					}
				}
			}
			for key, vals := range acked[w] {
				for _, v := range vals {
					id := key + "\x00" + v
					if got[id] > 0 {
						got[id]--
					} else {
						lost = append(lost, fmt.Sprintf("aar %v %s: %s", w, key, shorten(v)))
					}
				}
			}
		}
	case PatternAUR:
		for w, keys := range acked {
			for key, vals := range keys {
				rv, err := s.Read([]byte(key), w)
				if err != nil {
					t.Fatalf("case %s: Read(%s, %v): %v", fc.name, key, w, err)
				}
				got := make(map[string]int)
				for _, v := range rv {
					got[string(v)]++
				}
				for _, v := range vals {
					if got[v] > 0 {
						got[v]--
					} else {
						lost = append(lost, fmt.Sprintf("aur %v %s: %s", w, key, shorten(v)))
					}
				}
			}
		}
	default:
		for id, want := range lastAcked {
			got, ok, err := s.GetAggregate([]byte(id.key), id.w)
			if err != nil {
				t.Fatalf("case %s: GetAggregate(%s, %v): %v", fc.name, id.key, id.w, err)
			}
			switch {
			case !ok:
				lost = append(lost, fmt.Sprintf("rmw %v %s: aggregate missing, want %s",
					id.w, id.key, shorten(want)))
			case string(got) != want && !later[id][string(got)]:
				lost = append(lost, fmt.Sprintf("rmw %v %s: got %s, want %s or a later attempt",
					id.w, id.key, shorten(string(got)), shorten(want)))
			}
		}
	}

	if fc.rule.Op == faultfs.OpRead {
		if !inj.Fired() {
			t.Fatalf("case %s: read rule never fired", fc.name)
		}
		if got := s.Health(); got != Healthy {
			t.Errorf("case %s: transient read faults must not change health, got %v", fc.name, got)
		}
		if st := s.Stats(); st.ReadRetries == 0 {
			t.Errorf("case %s: expected absorbed read retries, stats: %+v", fc.name, st)
		}
		inj.Reset()
	}
	return lost
}

// TestFaultInjectionBattery sweeps every scenario across every pattern:
// no acked write may ever be silently lost.
func TestFaultInjectionBattery(t *testing.T) {
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		for _, fc := range faultScenarios() {
			t.Run(fmt.Sprintf("%v/%s", p, fc.name), func(t *testing.T) {
				if lost := runFaultCase(t, p, fc); len(lost) > 0 {
					max := len(lost)
					if max > 5 {
						max = 5
					}
					t.Errorf("%d acked writes silently lost, e.g.:\n  %s",
						len(lost), strings.Join(lost[:max], "\n  "))
				}
			})
		}
	}
}

// TestFaultInjectionRMWCleaning pins a fault inside an RMW cleaning pass
// — on the victim's sequential read, on the append to the survivor
// segment, and on the victim's unlink. The pass must abort cleanly: the
// Put that triggered it fails with a typed error and degrades the store,
// the index keeps serving every acked aggregate from the intact victims,
// the half-built survivor segment is gone, the directory holds exactly
// the segments the store still counts, and after Recover the store
// cleans successfully.
func TestFaultInjectionRMWCleaning(t *testing.T) {
	// Each round writes 36 hot aggregates every later round overwrites
	// and 60 cold ones nothing touches again, and fills the buffer once.
	// All share a window, so the eviction order falls to the keys, which
	// interleave hot and cold: every eviction — a quarter of the buffer, two
	// dozen aggregates — mixes the two, no segment ever empties by itself,
	// and only cleaning passes can bring the log back under MSA. One
	// victim's survivors outgrow the logfile write buffer, so the survivor
	// append reaches the file (and the injector) while the pass runs.
	const perRound = 96
	isHot := func(i int) bool { return i%8 < 3 }
	w := batteryWindow(0)
	open := func(t *testing.T, fsys faultfs.FS) *Store {
		s, err := OpenPattern(PatternRMW, window.Fixed, Options{
			Dir:                   filepath.Join(t.TempDir(), "store"),
			Instances:             1,
			WriteBufferBytes:      perRound * int64(len(batteryValuePad)+48),
			MaxSpaceAmplification: 1.3,
			FS:                    fsys,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Destroy() })
		return s
	}
	acked := make(map[string]string)
	put := func(s *Store, n int) error {
		round, i := n/perRound, n%perRound
		key := fmt.Sprintf("%02d-hot", i)
		if !isHot(i) {
			key = fmt.Sprintf("%02d-cold-%03d", i, round)
		}
		val := fmt.Sprintf("%s@%d|%s", key, round, batteryValuePad)
		err := s.PutAggregate([]byte(key), w, []byte(val))
		if err == nil {
			acked[key] = val
		}
		return err
	}
	segmentFiles := func(s *Store) []string {
		names, err := filepath.Glob(filepath.Join(instDir(s.opts.Dir, 0), "rmw-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	// A fault-free run finds the Put whose flush starts the first pass
	// that copies, and the file that pass creates for its survivors.
	dry := open(t, nil)
	firstPass, survivor := -1, ""
	for n := 0; firstPass < 0; n++ {
		if n > 100*perRound {
			t.Fatal("no cleaning pass in 100 rounds")
		}
		before := segmentFiles(dry)
		if err := put(dry, n); err != nil {
			t.Fatal(err)
		}
		if dry.Stats().Compactions == 0 {
			continue
		}
		firstPass = n
		known := make(map[string]bool)
		for _, f := range before {
			known[f] = true
		}
		for _, f := range segmentFiles(dry) {
			if !known[f] {
				survivor = filepath.Base(f) // sorted: the flush's segment first, the survivor last
			}
		}
	}
	if survivor == "" {
		t.Fatal("the first cleaning pass left no new segment")
	}

	pins := []faultCase{
		{name: "victim-read", rule: faultfs.Rule{Op: faultfs.OpRead, PathContains: "rmw-", Err: faultfs.ErrDiskIO}},
		{name: "survivor-append", rule: faultfs.Rule{Op: faultfs.OpWrite, PathContains: survivor, Err: faultfs.ErrDiskIO}},
		{name: "victim-unlink", rule: faultfs.Rule{Op: faultfs.OpRemove, PathContains: "rmw-", Err: faultfs.ErrDiskIO}},
	}
	for _, fc := range pins {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			clear(acked)
			inj := faultfs.NewInjector(faultfs.OS)
			s := open(t, inj)
			for n := 0; n < firstPass; n++ {
				if err := put(s, n); err != nil {
					t.Fatal(err)
				}
			}
			inj.SetRule(fc.rule)
			err := put(s, firstPass)
			if err == nil || !inj.Fired() {
				t.Fatalf("pinned Put: err=%v fired=%v; the fault missed the cleaning pass", err, inj.Fired())
			}
			if !errors.Is(err, faultfs.ErrDiskIO) {
				t.Fatalf("pinned Put failed with %v, want the injected disk error", err)
			}
			if got := s.Health(); got != Degraded {
				t.Fatalf("health after an aborted pass = %v, want Degraded", got)
			}
			inj.Reset()
			st := s.Stats()
			files := segmentFiles(s)
			if len(files) != st.LiveSegments {
				t.Fatalf("%d segment files on disk, store counts %d: %v", len(files), st.LiveSegments, files)
			}
			if fc.name != "victim-unlink" {
				// The pass aborted before installing anything.
				if st.Compactions != 0 || st.CompactionBytes != 0 {
					t.Fatalf("aborted pass counted as %d compactions, %d bytes", st.Compactions, st.CompactionBytes)
				}
				for _, f := range files {
					if filepath.Base(f) == survivor {
						t.Fatalf("half-built survivor %s left behind", survivor)
					}
				}
			}
			if err := s.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if got := s.Health(); got != Healthy {
				t.Fatalf("health after recover = %v", got)
			}
			// Another round: the retried pass succeeds and reclaims the log.
			for n := firstPass + 1; n <= firstPass+perRound; n++ {
				if err := put(s, n); err != nil {
					t.Fatalf("put after recover: %v", err)
				}
			}
			st = s.Stats()
			if st.Compactions == 0 {
				t.Fatalf("no cleaning pass completed after recover: %+v", st)
			}
			if files := segmentFiles(s); len(files) != st.LiveSegments {
				t.Fatalf("%d segment files on disk after recover, store counts %d", len(files), st.LiveSegments)
			}
			// The Put that carried the fault was applied before its pass
			// ran; everything acked, and it, must read back.
			for key, want := range acked {
				got, ok, err := s.GetAggregate([]byte(key), w)
				if err != nil || !ok || string(got) != want {
					t.Fatalf("%s after aborted pass: ok=%v err=%v match=%v", key, ok, err, string(got) == want)
				}
			}
		})
	}
}

// TestFaultInjectionLinkFallback fails the hard-link op — once and
// persistently — under an incremental checkpoint. Link refusal is the
// one fault the delta path must absorb completely: LinkOrCopy falls back
// to copying the parent's segment, the commit succeeds, the store stays
// Healthy, and the resulting checkpoint restores every acked write. A
// persistent link fault must additionally account zero linked bytes for
// the commit (everything went through the copy path).
func TestFaultInjectionLinkFallback(t *testing.T) {
	cases := []faultCase{
		{name: "link-once", rule: faultfs.Rule{Op: faultfs.OpLink}},
		{name: "link-persistent", rule: faultfs.Rule{
			Op: faultfs.OpLink, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO}},
	}
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		for _, fc := range cases {
			p, fc := p, fc
			t.Run(fmt.Sprintf("%v/%s", p, fc.name), func(t *testing.T) {
				inj := faultfs.NewInjector(faultfs.OS)
				agg, wk, opts := crashConfig(p)
				opts.FS = inj
				base := t.TempDir()
				opts.Dir = filepath.Join(base, "store")
				s, err := Open(agg, wk, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Destroy()
				o := newCrashOracle(p)
				rng := rand.New(rand.NewSource(int64(p)*13 + int64(len(fc.name))))
				ctr := 0
				// Anchors plus a fault-free workload and base: the delta
				// commit under fire is guaranteed to attempt links.
				if err := writeAnchors(s, p); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 100; i++ {
					if err := o.step(rng, s, &ctr); err != nil {
						t.Fatalf("workload: %v", err)
					}
				}
				ck1 := filepath.Join(base, "ck1")
				if err := s.CheckpointDelta(ck1, "", nil); err != nil {
					t.Fatalf("base checkpoint: %v", err)
				}
				for i := 0; i < 40; i++ {
					if err := o.step(rng, s, &ctr); err != nil {
						t.Fatalf("workload: %v", err)
					}
				}
				before := s.Stats()
				inj.SetRule(fc.rule)
				ck2 := filepath.Join(base, "ck2")
				if err := s.CheckpointDelta(ck2, ck1, nil); err != nil {
					t.Fatalf("delta commit under %s must fall back to copy, got: %v", fc.name, err)
				}
				if !inj.Fired() {
					t.Fatalf("case %s: link rule never fired — scenario tests nothing", fc.name)
				}
				inj.Reset()
				if got := s.Health(); got != Healthy {
					t.Errorf("case %s: link refusal degraded the store to %v", fc.name, got)
				}
				after := s.Stats()
				if fc.rule.Class == faultfs.ClassPersistent {
					if linked := after.CkptLinkedBytes - before.CkptLinkedBytes; linked != 0 {
						t.Errorf("case %s: %d bytes linked despite persistent link faults", fc.name, linked)
					}
				}
				if copied := after.CkptCopiedBytes - before.CkptCopiedBytes; copied == 0 {
					t.Errorf("case %s: commit copied nothing", fc.name)
				}
				// The acked-writes oracle: the checkpoint written through the
				// fallback restores everything that was acked at its cut.
				restOpts := opts
				restOpts.FS = nil
				restOpts.Dir = filepath.Join(base, "restored")
				fresh, err := Open(agg, wk, restOpts)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Destroy()
				if err := fresh.Restore(ck2); err != nil {
					t.Fatalf("case %s: fallback checkpoint does not restore: %v", fc.name, err)
				}
				o.verify(t, fc.name, fresh)
			})
		}
	}
}

// TestFaultBatteryDetectsBrokenReattach re-runs the battery's harshest
// write scenarios with the flush re-attach logic deliberately disabled
// (acked-but-unflushed entries are dropped on a failed flush instead of
// being returned to the write buffer). The battery must observe real
// loss for every pattern — proving the oracle has teeth, and that the
// re-attach paths are what uphold the no-silent-loss contract.
func TestFaultBatteryDetectsBrokenReattach(t *testing.T) {
	aar.DisableFlushReattach = true
	aur.DisableFlushReattach = true
	rmw.DisableFlushReattach = true
	defer func() {
		aar.DisableFlushReattach = false
		aur.DisableFlushReattach = false
		rmw.DisableFlushReattach = false
	}()
	cases := map[Pattern]faultCase{
		// AAR buckets are lost when the per-window log cannot be created.
		PatternAAR: {name: "broken-create", rule: faultfs.Rule{
			Op: faultfs.OpCreate, PathContains: "win_", Class: faultfs.ClassPersistent}},
		// AUR/RMW batches are cut mid-flush by a persistent write fault.
		PatternAUR: {name: "broken-write", rule: faultfs.Rule{
			Op: faultfs.OpWrite, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO}},
		PatternRMW: {name: "broken-write", rule: faultfs.Rule{
			Op: faultfs.OpWrite, Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO}},
	}
	for _, p := range []Pattern{PatternAAR, PatternAUR, PatternRMW} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			if lost := runFaultCase(t, p, cases[p]); len(lost) == 0 {
				t.Fatalf("broken flush re-attach produced no detectable loss — the battery oracle is blind")
			}
		})
	}
}
