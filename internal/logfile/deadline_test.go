package logfile

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flowkv/internal/faultfs"
)

// recordingMonitor counts latency observations and stall events.
type recordingMonitor struct {
	mu     sync.Mutex
	ops    map[MonKind]int
	stalls map[MonKind]int
}

func newRecordingMonitor() *recordingMonitor {
	return &recordingMonitor{ops: map[MonKind]int{}, stalls: map[MonKind]int{}}
}

func (m *recordingMonitor) ObserveOp(kind MonKind, d time.Duration) {
	m.mu.Lock()
	m.ops[kind]++
	m.mu.Unlock()
}

func (m *recordingMonitor) ObserveStall(kind MonKind, deadline time.Duration) {
	m.mu.Lock()
	m.stalls[kind]++
	m.mu.Unlock()
}

func (m *recordingMonitor) counts() (ops, stalls map[MonKind]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ops, stalls = map[MonKind]int{}, map[MonKind]int{}
	for k, v := range m.ops {
		ops[k] = v
	}
	for k, v := range m.stalls {
		stalls[k] = v
	}
	return ops, stalls
}

// deadlineLog builds a log over an injector with n synced records and m
// unsynced tail records.
func deadlineLog(t *testing.T, synced, unsynced int) (*Log, *faultfs.Injector, []string) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS)
	l, err := CreateFS(inj, filepath.Join(t.TempDir(), "d.log"), nil)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	var want []string
	for i := 0; i < synced; i++ {
		rec := fmt.Sprintf("synced-%03d", i)
		if _, _, err := l.Append([]byte(rec)); err != nil {
			t.Fatalf("append: %v", err)
		}
		want = append(want, rec)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}
	for i := 0; i < unsynced; i++ {
		rec := fmt.Sprintf("tail-%03d", i)
		if _, _, err := l.Append([]byte(rec)); err != nil {
			t.Fatalf("append tail: %v", err)
		}
		want = append(want, rec)
	}
	return l, inj, want
}

func scanAll(t *testing.T, l *Log) []string {
	t.Helper()
	sc, err := l.Scanner(0)
	if err != nil {
		t.Fatalf("scanner: %v", err)
	}
	var got []string
	for sc.Scan() {
		got = append(got, string(sc.Record()))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got
}

func waitParked(t *testing.T, inj *faultfs.Injector) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for inj.Stalled() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("operation never parked in the injector")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestDeadlineHungSyncPoisonsAndRecovers(t *testing.T) {
	l, inj, want := deadlineLog(t, 5, 3)
	mon := newRecordingMonitor()
	l.SetPolicy(&Policy{Deadline: 20 * time.Millisecond, Monitor: mon})
	defer inj.Release()

	durableBefore := l.DurableOffset()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassPersistent})

	err := l.Sync()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("sync over hung fsync = %v, want ErrStalled", err)
	}
	if l.Poisoned() == nil || !errors.Is(l.Poisoned(), ErrStalled) {
		t.Fatalf("log not poisoned by the stall: %v", l.Poisoned())
	}
	if got := l.DurableOffset(); got != durableBefore {
		t.Fatalf("stalled sync moved the durable offset: %d -> %d", durableBefore, got)
	}
	_, stalls := mon.counts()
	if stalls[MonSync] != 1 {
		t.Fatalf("monitor saw %d sync stalls, want 1", stalls[MonSync])
	}

	// Degraded reads keep serving every acked record (durable prefix
	// stitched with the retained tail).
	if got := scanAll(t, l); len(got) != len(want) {
		t.Fatalf("degraded scan returned %d records, want %d", len(got), len(want))
	}

	// Recovery: fresh descriptor, truncate to durable, rewrite tail.
	// The hang is still armed, so clear it first (ReopenAtDurable does
	// not fsync, but future syncs must pass).
	inj.Reset()
	if err := l.ReopenAtDurable(); err != nil {
		t.Fatalf("reopen at durable: %v", err)
	}
	if _, _, err := l.Append([]byte("post-reopen")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	want = append(want, "post-reopen")
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
	got := scanAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("post-recovery scan returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDeadlineTimedOutSyncNeverRefsyncs(t *testing.T) {
	// The never-refsync rule: after a timed-out fsync the descriptor is
	// abandoned — later Syncs fail fast without issuing another fsync
	// on it, exactly like an error-failed sync.
	l, inj, _ := deadlineLog(t, 2, 2)
	l.SetPolicy(&Policy{Deadline: 20 * time.Millisecond})
	defer inj.Release()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassPersistent})
	if err := l.Sync(); !errors.Is(err, ErrStalled) {
		t.Fatalf("sync = %v, want ErrStalled", err)
	}
	opsAfterStall := inj.Ops()
	for i := 0; i < 3; i++ {
		if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("sync %d on poisoned log = %v, want ErrPoisoned", i, err)
		}
	}
	if got := inj.Ops(); got != opsAfterStall {
		t.Fatalf("poisoned log touched the filesystem: %d ops -> %d", opsAfterStall, got)
	}
}

func TestDeadlineHangReleasedAfterPoisonKeepsDurable(t *testing.T) {
	// The hung fsync is released only AFTER the log has been poisoned,
	// reopened and written to again — the late completion lands on the
	// abandoned descriptor and must not corrupt the durable prefix.
	l, inj, want := deadlineLog(t, 4, 2)
	l.SetPolicy(&Policy{Deadline: 20 * time.Millisecond})
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassOnce})
	if err := l.Sync(); !errors.Is(err, ErrStalled) {
		t.Fatalf("sync = %v, want ErrStalled", err)
	}
	waitParked(t, inj)
	if err := l.ReopenAtDurable(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, _, err := l.Append([]byte("after-stall")); err != nil {
		t.Fatalf("append: %v", err)
	}
	want = append(want, "after-stall")
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
	durable := l.DurableOffset()

	// Now release the hung fsync and let it complete on the abandoned fd.
	inj.Release()
	deadline := time.Now().Add(10 * time.Second)
	for inj.Stalled() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("released fsync never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if got := l.DurableOffset(); got != durable {
		t.Fatalf("late fsync completion moved the durable offset: %d -> %d", durable, got)
	}
	got := scanAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}

	// A cold reopen of the same file sees the identical committed set.
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d, err := OpenDirFS(inj, filepath.Dir(l.Path()), nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := d.OpenSealed(filepath.Base(l.Path()), l.CRC())
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer l2.Close()
	got2 := scanAll(t, l2)
	if len(got2) != len(want) {
		t.Fatalf("cold scan returned %d records, want %d", len(got2), len(want))
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("cold record %d = %q, want %q", i, got2[i], want[i])
		}
	}
}

func TestDeadlineHungWriteStallsFlush(t *testing.T) {
	l, inj, want := deadlineLog(t, 3, 0)
	l.SetPolicy(&Policy{Deadline: 20 * time.Millisecond})
	defer inj.Release()
	if _, _, err := l.Append([]byte("buffered")); err != nil {
		t.Fatalf("append: %v", err)
	}
	want = append(want, "buffered")
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, Hang: true, Class: faultfs.ClassOnce})
	if err := l.Flush(); !errors.Is(err, ErrStalled) {
		t.Fatalf("flush over hung write = %v, want ErrStalled", err)
	}
	if l.Poisoned() == nil {
		t.Fatalf("hung write did not poison the log")
	}
	if err := l.ReopenAtDurable(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	inj.Release()
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
	got := scanAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(want))
	}
}

func TestDeadlineSplitSyncStallPoisonsViaFinish(t *testing.T) {
	// The split-sync path: commit runs the fsync outside the I/O lock;
	// a timed-out commit must poison through FinishSync exactly like a
	// failed one.
	l, inj, _ := deadlineLog(t, 2, 1)
	l.SetPolicy(&Policy{Deadline: 20 * time.Millisecond})
	defer inj.Release()
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassPersistent})
	tok, commit, err := l.BeginSync()
	if err != nil {
		t.Fatalf("begin sync: %v", err)
	}
	serr := commit()
	if !errors.Is(serr, ErrStalled) {
		t.Fatalf("commit = %v, want ErrStalled", serr)
	}
	if err := l.FinishSync(tok, serr); !errors.Is(err, ErrStalled) {
		t.Fatalf("finish sync = %v, want the stall error back", err)
	}
	if l.Poisoned() == nil {
		t.Fatalf("stalled split sync did not poison the log")
	}
}

func TestDeadlineMonitorObservesWithoutDeadline(t *testing.T) {
	// A policy with only a Monitor (no deadline) observes latency
	// without spawning sentinel goroutines or ever stalling.
	l, _, _ := deadlineLog(t, 0, 0)
	mon := newRecordingMonitor()
	l.SetPolicy(&Policy{Monitor: mon})
	if _, _, err := l.Append([]byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if _, err := l.ReadRecordAt(0, 1); err == nil {
		_ = err // best-effort: a short read is fine, we only want latency samples
	}
	ops, stalls := mon.counts()
	if ops[MonWrite] == 0 || ops[MonSync] == 0 {
		t.Fatalf("monitor missed ops: %v", ops)
	}
	if len(stalls) != 0 {
		t.Fatalf("monitor saw stalls on a healthy log: %v", stalls)
	}
}

func TestDeadlineDirPolicyInheritance(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	d, err := OpenDirFS(inj, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open dir: %v", err)
	}
	d.SetPolicy(&Policy{Deadline: 20 * time.Millisecond})
	defer inj.Release()
	l, err := d.Create("inherit.log")
	if err != nil {
		t.Fatalf("dir create: %v", err)
	}
	defer l.Close()
	if _, _, err := l.Append([]byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpSync, Hang: true, Class: faultfs.ClassPersistent})
	if err := l.Sync(); !errors.Is(err, ErrStalled) {
		t.Fatalf("sync on dir-created log = %v, want ErrStalled (policy not inherited?)", err)
	}
}
