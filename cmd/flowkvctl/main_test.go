package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/core"
	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faultfs"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// TestFileKindKnowsEveryCheckpointFile takes a real checkpoint (with
// application metadata, then quarantined) of each store pattern and
// requires that `flowkvctl ls` would name every file in it, and in the
// live store directory next to it — no "unknown" rows.
func TestFileKindKnowsEveryCheckpointFile(t *testing.T) {
	for _, tc := range []struct {
		pattern core.Pattern
		kind    window.Kind
		// want are kinds this pattern's checkpoint must contain.
		want []string
	}{
		{core.PatternAAR, window.Fixed, []string{"aar-window-seg"}},
		{core.PatternAUR, window.Session, []string{"aur-segment-seg"}},
		{core.PatternRMW, window.Fixed, []string{"rmw-seg"}},
	} {
		t.Run(tc.pattern.String(), func(t *testing.T) {
			base := t.TempDir()
			st, err := core.OpenPattern(tc.pattern, tc.kind, core.Options{
				Dir: filepath.Join(base, "store"), Instances: 2, WriteBufferBytes: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Destroy()
			w := window.Window{Start: 0, End: 100}
			for i := 0; i < 50; i++ {
				key, val := []byte(fmt.Sprintf("k%02d", i)), []byte("value")
				if tc.pattern == core.PatternRMW {
					err = st.PutAggregate(key, w, val)
				} else {
					err = st.Append(key, val, w, int64(i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			ck := filepath.Join(base, "ck")
			if err := st.CheckpointWithMeta(ck, []byte("meta")); err != nil {
				t.Fatal(err)
			}
			if err := core.QuarantineCheckpoint(nil, ck, "test"); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				kind := fileKind(d.Name())
				if kind == "unknown" {
					t.Errorf("ls prints unknown for %s", path)
				}
				seen[kind] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range append(tc.want, "checkpoint-cut", "quarantine-marker") {
				if !seen[k] {
					t.Errorf("no %s file in the checkpoint (kinds seen: %v)", k, seen)
				}
			}
		})
	}
}

// captureStdout runs f with the process's standard output redirected to
// a file and returns what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestMultiSegmentRMWLog spills an RMW instance into many log segments,
// some of them since dropped, and requires that `ls` labels every one of
// them rmw and that `health` walks them all and reports the segment
// counts per instance.
func TestMultiSegmentRMWLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := core.OpenPattern(core.PatternRMW, window.Fixed, core.Options{
		Dir: dir, Instances: 1, WriteBufferBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Destroy()
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 60; i++ {
		if err := st.PutAggregate([]byte(fmt.Sprintf("k%02d", i)), w, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if i >= 20 { // consume in age order: the oldest segments empty and go
			if _, ok, err := st.GetAggregate([]byte(fmt.Sprintf("k%02d", i-20)), w); err != nil || !ok {
				t.Fatalf("k%02d: ok=%v err=%v", i-20, ok, err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	segs, _ := filepath.Glob(filepath.Join(dir, "inst-*", "rmw-*.log"))
	if len(segs) < 2 || len(segs) != stats.LiveSegments || stats.SegmentsDropped == 0 {
		t.Fatalf("%d segment files, stats %d live and %d dropped; want several live and some dropped",
			len(segs), stats.LiveSegments, stats.SegmentsDropped)
	}
	for _, seg := range segs {
		if kind := fileKind(filepath.Base(seg)); kind != "rmw-log" {
			t.Errorf("ls labels %s %q, want rmw-log", seg, kind)
		}
	}
	printed := captureStdout(t, func() error { return cmdHealth(dir) })
	if want := fmt.Sprintf("%d log files: %d clean", len(segs), len(segs)); !strings.Contains(printed, want) {
		t.Errorf("health does not report %q:\n%s", want, printed)
	}
	want := fmt.Sprintf("rmw log %s: %d live segments, at least %d dropped",
		filepath.Base(filepath.Dir(segs[0])), stats.LiveSegments, stats.SegmentsDropped)
	if !strings.Contains(printed, want) {
		t.Errorf("health does not report %q:\n%s", want, printed)
	}
	// After the Flush everything live is in the segments, and what the
	// files hold is what the running store counts as its disk footprint.
	if want := fmt.Sprintf("in %d bytes on disk, %d bytes a segment", stats.DiskBytes, stats.DiskBytes/int64(len(segs))); !strings.Contains(printed, want) {
		t.Errorf("health does not report %q:\n%s", want, printed)
	}
	// The running store's counters say how the bytes got there: every Get
	// above hit, in the buffer or on disk, and nothing is on disk that was
	// not flushed or cleaned there.
	if stats.BufferHits+stats.DiskHits != 40 || stats.DiskHits == 0 || stats.FlushBytes+stats.CompactionBytes < stats.DiskBytes {
		t.Errorf("stats: %d buffer hits, %d disk hits, %d bytes flushed, %d cleaned, %d on disk",
			stats.BufferHits, stats.DiskHits, stats.FlushBytes, stats.CompactionBytes, stats.DiskBytes)
	}
}

// TestHealthReportsAURLogs spills an AUR instance past several evictions
// and a cleaning pass and requires that `health` prints, per instance,
// what its segment logs hold — with each segment's live share when run
// over a checkpoint, whose liveness section carries it — and that the running
// store's counters, which the last line points to, account for those
// bytes.
func TestHealthReportsAURLogs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := core.OpenPattern(core.PatternAUR, window.Session, core.Options{
		Dir: dir, Instances: 1, WriteBufferBytes: 1024, Assigner: window.SessionAssigner{Gap: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Destroy()
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%03d", i)), window.Window{Start: int64(i), End: int64(i) + 100}
	}
	// Every third session outlives the others: the segments the short ones
	// leave two thirds dead are what cleaning takes.
	const ids, lag = 400, 60
	var fired int64
	for i := 0; i < ids+lag; i++ {
		if i < ids {
			k, w := session(i)
			if err := st.Append(k, []byte("value"), w, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if j := i - lag; j >= 0 && j%3 != 0 {
			k, w := session(j)
			if vals, err := st.Get(k, w); err != nil || len(vals) != 1 {
				t.Fatalf("%s: %d values, err %v", k, len(vals), err)
			}
			fired++
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.BufferHits == 0 || stats.DiskHits == 0 || stats.BufferHits+stats.DiskHits != fired || stats.Compactions == 0 || stats.SegmentsDropped == 0 {
		t.Fatalf("stats: %d buffer hits, %d disk hits, %d cleaning passes, %d segments dropped; want %d sessions consumed, some each way, and a pass",
			stats.BufferHits, stats.DiskHits, stats.Compactions, stats.SegmentsDropped, fired)
	}
	if stats.FlushBytes+stats.CompactionBytes < stats.DiskBytes || stats.FlushBytes == 0 || stats.CompactionBytes == 0 {
		t.Errorf("stats: %d bytes flushed, %d cleaned, %d on disk", stats.FlushBytes, stats.CompactionBytes, stats.DiskBytes)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "inst-*", "aur-*.log"))
	if len(segs) != stats.LiveSegments || len(segs) < 2 {
		t.Fatalf("%d segment logs, the store counts %d segments", len(segs), stats.LiveSegments)
	}
	size := func(paths []string) (n int64) {
		for _, path := range paths {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	if size(segs) != stats.DiskBytes {
		t.Fatalf("logs of %d bytes, the store counts %d on disk", size(segs), stats.DiskBytes)
	}
	printed := captureStdout(t, func() error { return cmdHealth(dir) })
	for _, want := range []string{
		fmt.Sprintf("aur log %s: %d segments; ", filepath.Base(filepath.Dir(segs[0])), len(segs)),
		fmt.Sprintf(" blocks, %d bytes\n", size(segs)),
		fmt.Sprintf("  segment %s: ", strings.TrimSuffix(strings.TrimPrefix(filepath.Base(segs[0]), "aur-"), ".log")),
		fmt.Sprintf(" batches in %d bytes, live share not on disk (not a checkpoint)", size(segs[:1])),
		"core.Stats FlushBytes, CompactionBytes, SegmentsDropped, BufferHits, DiskHits)",
		fmt.Sprintf("%d log files: %d clean", len(segs), len(segs)),
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("health does not report %q:\n%s", want, printed)
		}
	}

	// A checkpoint says what is live in each segment.
	ck := filepath.Join(t.TempDir(), "ck")
	if err := st.Checkpoint(ck); err != nil {
		t.Fatal(err)
	}
	listed, live := liveShares(t, captureStdout(t, func() error { return cmdHealth(ck) }), "batches")
	if listed != len(segs) || live != len(segs) {
		t.Errorf("health over the checkpoint lists %d segments, %d with live state; the store holds %d", listed, live, len(segs))
	}
}

// liveShares parses the per-segment lines health prints over a checkpoint,
// noun the entries' name, and returns how many it listed and how many
// have anything live; a share outside (0, 100] fails the test.
func liveShares(t *testing.T, printed, noun string) (listed, live int) {
	t.Helper()
	for _, line := range strings.Split(printed, "\n") {
		var sid, entries, bytes, share int
		if n, _ := fmt.Sscanf(line, "  segment %d: %d "+noun+" in %d bytes, %d%% live", &sid, &entries, &bytes, &share); n != 4 {
			continue
		}
		if share < 0 || share > 100 {
			t.Errorf("segment %d: %d%% live:\n%s", sid, share, printed)
		}
		listed++
		live += min(share, 1)
	}
	return listed, live
}

// TestHealthReportsRMWLiveShare is TestHealthReportsAURLogs for RMW: over
// its store directory `health` says the live share is not on disk, over a
// checkpoint it reads each segment's from the CUT's liveness section — every
// segment the cut holds has something live, and the ones a consume
// thinned out less than all of it.
func TestHealthReportsRMWLiveShare(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := core.OpenPattern(core.PatternRMW, window.Fixed, core.Options{
		Dir: dir, Instances: 1, WriteBufferBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Destroy()
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 60; i++ {
		if err := st.PutAggregate([]byte(fmt.Sprintf("k%02d", i)), w, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i += 2 {
		if _, ok, err := st.GetAggregate([]byte(fmt.Sprintf("k%02d", i)), w); err != nil || !ok {
			t.Fatalf("k%02d: ok=%v err=%v", i, ok, err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "inst-*", "rmw-*.log"))
	if len(segs) < 2 {
		t.Fatalf("%d segment files; want several", len(segs))
	}
	if printed := captureStdout(t, func() error { return cmdHealth(dir) }); !strings.Contains(printed, " entries in ") || !strings.Contains(printed, "live share not on disk (not a checkpoint)") {
		t.Errorf("health over the store does not say the live share is not on disk:\n%s", printed)
	}
	ck := filepath.Join(t.TempDir(), "ck")
	if err := st.Checkpoint(ck); err != nil {
		t.Fatal(err)
	}
	cut, _ := filepath.Glob(filepath.Join(ck, "inst-*.rmw-*.log.seg-*"))
	printed := captureStdout(t, func() error { return cmdHealth(ck) })
	listed, live := liveShares(t, printed, "entries")
	if listed != len(cut) || live != len(cut) || !strings.Contains(printed, "% live") || strings.Count(printed, "100% live") == listed {
		t.Errorf("health over the checkpoint lists %d segments, %d with live state, the cut holds %d; want some partly live:\n%s", listed, live, len(cut), printed)
	}
}

// TestAURPrintsBlocksAndBatches runs `flowkvctl aur` over every segment
// log of a real AUR instance that has evicted, cleaned and evicted again,
// and checks the rows against the file: one row per batch, each with a
// value, the rows of a block under one flush number, the totals line
// counting the file's frames, and — in the survivor segment, which
// cleaning fills — flush numbers from more than one flush.
func TestAURPrintsBlocksAndBatches(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := aur.Open(aur.Options{Dir: dir, WriteBufferBytes: 1 << 10, Predictor: window.SessionPredictor{Gap: 100}})
	if err != nil {
		t.Fatal(err)
	}
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%03d", i)), window.Window{Start: int64(i) * 10, End: int64(i)*10 + 100}
	}
	const ids, lag = 400, 60
	for i := 0; i < ids; i++ {
		k, w := session(i)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			t.Fatal(err)
		}
		if j := i - lag; j >= 0 && j%3 != 0 { // every third session stays
			if _, err := s.Get(session(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.SegmentStats().Compactions == 0 {
		t.Fatal("store never cleaned")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segments := s.SegmentStats().LiveSegments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "aur-*.log"))
	if len(logs) != segments || segments < 2 {
		t.Fatalf("store dir holds %d segment logs, the store counted %d segments", len(logs), segments)
	}
	var mixed int // segments whose batches were first written by several flushes
	for _, path := range logs {
		frames := 0
		if err := scanRecords(path, func(int, int64, []byte) error { frames++; return nil }); err != nil {
			t.Fatal(err)
		}
		printed := captureStdout(t, func() error { return cmdAUR(path) })
		lines := strings.Split(strings.TrimSpace(printed), "\n")
		rows, total := lines[1:len(lines)-1], lines[len(lines)-1]
		values := 0
		flushes := make(map[string]bool)
		blockFlush := make(map[string]string)
		for i, row := range rows {
			f := strings.Fields(row)
			if len(f) != 5 {
				t.Fatalf("%s row %d has %d columns: %q", path, i, len(f), row)
			}
			n, _ := strconv.Atoi(f[4])
			if n < 1 || !strings.HasPrefix(f[2], "user-") {
				t.Fatalf("%s row %d: %q", path, i, row)
			}
			if prev, ok := blockFlush[f[0]]; ok && prev != f[1] {
				t.Fatalf("%s block %s holds batches of flushes %s and %s", path, f[0], prev, f[1])
			}
			blockFlush[f[0]] = f[1]
			values += n
			flushes[f[1]] = true
		}
		if want := fmt.Sprintf("%d blocks, %d batches, %d values", frames, len(rows), values); total != want || len(blockFlush) != frames {
			t.Errorf("%s: last line %q, rows in %d blocks; want %q", path, total, len(blockFlush), want)
		}
		if len(flushes) > 1 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no segment holds batches of more than one flush: no survivor segment among them")
	}
}

// TestRMWPrintsBlocksAndEntries spills an RMW store through evictions and
// a cleaning pass, runs `flowkvctl rmw` over every segment and checks the
// rows against the file: one row per entry, each a key put and the size of
// its aggregate, the rows of a block under one flush number, the totals
// line counting the file's frames, and every aggregate live after the
// drain in some segment.
func TestRMWPrintsBlocksAndEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rmw")
	s, err := rmw.Open(rmw.Options{Dir: dir, WriteBufferBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%03d", i)), window.Window{Start: int64(i) * 10, End: int64(i)*10 + 100}
	}
	const ids, lag = 400, 60
	live := make(map[string]int) // key -> aggregate bytes
	for i := 0; i < ids; i++ {
		k, w := session(i)
		agg := strings.Repeat("a", 1+i%5)
		if err := s.Put(k, w, []byte(agg)); err != nil {
			t.Fatal(err)
		}
		live[string(k)] = len(agg)
		if j := i - lag; j >= 0 && j%3 != 0 { // every third session stays
			k, w := session(j)
			if _, ok, err := s.Get(k, w); err != nil || !ok {
				t.Fatalf("%s: ok=%v err=%v", k, ok, err)
			}
			delete(live, string(k))
		}
	}
	if s.SegmentStats().Compactions == 0 {
		t.Fatal("store never cleaned")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segments := s.SegmentStats().LiveSegments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "rmw-*.log"))
	if len(logs) != segments || segments < 2 {
		t.Fatalf("store dir holds %d segment logs, the store counted %d segments", len(logs), segments)
	}
	seen := make(map[string]bool)
	for _, path := range logs {
		frames := 0
		if err := scanRecords(path, func(int, int64, []byte) error { frames++; return nil }); err != nil {
			t.Fatal(err)
		}
		printed := captureStdout(t, func() error { return cmdRMW(path) })
		lines := strings.Split(strings.TrimSpace(printed), "\n")
		rows, total := lines[1:len(lines)-1], lines[len(lines)-1]
		aggBytes := 0
		blockFlush := make(map[string]string)
		for i, row := range rows {
			f := strings.Fields(row)
			if len(f) != 5 {
				t.Fatalf("%s row %d has %d columns: %q", path, i, len(f), row)
			}
			n, _ := strconv.Atoi(f[4])
			if n < 1 || n > 5 || !strings.HasPrefix(f[2], "user-") {
				t.Fatalf("%s row %d: %q", path, i, row)
			}
			if want, ok := live[f[2]]; ok && want == n {
				seen[f[2]] = true
			}
			if prev, ok := blockFlush[f[0]]; ok && prev != f[1] {
				t.Fatalf("%s block %s holds entries of flushes %s and %s", path, f[0], prev, f[1])
			}
			blockFlush[f[0]] = f[1]
			aggBytes += n
		}
		if want := fmt.Sprintf("%d blocks, %d entries, %d aggregate bytes", frames, len(rows), aggBytes); total != want || len(blockFlush) != frames {
			t.Errorf("%s: last line %q, rows in %d blocks; want %q", path, total, len(blockFlush), want)
		}
	}
	if len(seen) != len(live) {
		t.Errorf("the segments print %d of the %d live aggregates", len(seen), len(live))
	}
}

// killedJob commits a few generations of a windowed job whose stage 1
// runs at 2 workers over private FlowKV stores, and kills it, leaving a
// resumable job directory.
func killedJob(t *testing.T) string {
	t.Helper()
	return killedJobRetaining(t, 1)
}

// killedJobRetaining is killedJob keeping the retain newest generations.
func killedJobRetaining(t *testing.T, retain int) string {
	t.Helper()
	base := t.TempDir()
	assigner := window.FixedAssigner{Size: 64}
	spec := spe.OperatorSpec{Assigner: assigner, Holistic: spe.HolisticFunc(func(_ []byte, vals [][]byte) []byte {
		return []byte(strconv.Itoa(len(vals)))
	})}
	var tuples []spe.Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, spe.Tuple{Key: []byte(fmt.Sprintf("k%02d", i%13)), Value: []byte("v"), TS: int64(i)})
	}
	job := &spe.Job{
		Pipeline: &spe.Pipeline{
			WatermarkEvery: 25,
			Stages: []spe.Stage{
				{Name: "tag", Parallelism: 2, Map: func(t spe.Tuple, emit func(spe.Tuple)) { emit(t) }},
				{
					Name: "win", Parallelism: 2, Window: &spec,
					NewBackend: func(w int) (statebackend.Backend, error) {
						return statebackend.Open(statebackend.Config{
							Kind:       statebackend.KindFlowKV,
							Dir:        filepath.Join(base, "state", fmt.Sprintf("w%02d", w)),
							Agg:        core.AggHolistic,
							WindowKind: window.Fixed,
							Assigner:   assigner,
							FlowKV:     core.Options{Instances: 2, WriteBufferBytes: 1 << 10},
						})
					},
				},
			},
		},
		Source:            spe.NewSliceSource(tuples),
		Dir:               filepath.Join(base, "job"),
		CheckpointEvery:   97,
		KillAfterTuples:   300,
		RetainGenerations: retain,
	}
	if _, err := job.Run(); !errors.Is(err, spe.ErrJobKilled) {
		t.Fatalf("want a killed job, got %v", err)
	}
	return job.Dir
}

// TestJobReportsResumePlan drives `flowkvctl job` over a committed job
// at 2 workers: at target 2 the stage restores directly, at 3 it
// rescales 2 -> 3; the ledger line counts the committed records and
// bytes and prices a record. A generation missing one worker cut fails
// the command.
func TestJobReportsResumePlan(t *testing.T) {
	private := killedJob(t)
	meta, err := spe.ReadJobMeta(nil, private)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spe.ReadLedger(nil, private)
	if err != nil || len(recs) == 0 {
		t.Fatalf("the killed job committed %d records: %v", len(recs), err)
	}
	ledger := fmt.Sprintf("ledger: %d records in %d committed bytes, %.2f B a record,",
		len(recs), meta.LedgerLen, float64(meta.LedgerLen)/float64(len(recs)))
	for target, want := range map[int]string{
		2: "stage  1: direct worker-for-worker restore",
		3: "stage  1: rescale 2 -> 3",
	} {
		out := captureStdout(t, func() error { return cmdJob(private, target) })
		for _, line := range []string{"stage  1: 2 workers", "s01-w00", "s01-w01", want, ledger} {
			if !strings.Contains(out, line) {
				t.Errorf("target %d: report lacks %q:\n%s", target, line, out)
			}
		}
	}

	if err := os.RemoveAll(filepath.Join(private, spe.GenDirName(meta.Gen), "s01-w01")); err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err = cmdJob(private, 2)
	os.Stdout.Close()
	os.Stdout = stdout
	if err == nil || !strings.Contains(err.Error(), "1 of its 2 committed worker cuts") {
		t.Fatalf("generation missing a worker cut: err = %v", err)
	}
}

// flowkvctl aar prints each flush chunk's keys and tuples, decoded with
// the store's own chunk codec: a one-window log flushed twice holds two
// chunks whose rows add up to the tuples appended.
func TestAARPrintsKeysAndTuplesPerChunk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aar")
	s, err := aar.Open(aar.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := window.Window{Start: 0, End: 100}
	for flush, keys := range []int{3, 5} {
		for i := 0; i < 10; i++ {
			if err := s.Append([]byte(fmt.Sprintf("user-%02d", i%keys)), []byte{byte(flush)}, w); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "win_0_100.log")
	printed := captureStdout(t, func() error { return cmdAAR(path) })
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	if len(lines) != 4 {
		t.Fatalf("printed %q", printed)
	}
	decoded := 0
	for i, want := range [][]string{{"0", "3", "10"}, {"1", "5", "10"}} {
		f := strings.Fields(lines[1+i])
		if len(f) != 6 || f[0] != want[0] || f[1] != want[1] || f[2] != want[2] || f[5] != "user-00" {
			t.Errorf("chunk row %d = %q, want # keys values = %v, first key user-00", i, lines[1+i], want)
			continue
		}
		n, _ := strconv.Atoi(f[4])
		decoded += n
	}
	// The window's line: on-disk bytes are the whole file, frames
	// included, and the decoded bytes the chunks' bodies.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("win_0_100.log: 2 chunks, 8 keys, 20 values, %d bytes on disk, %d decoded, %.2f B a value",
		st.Size(), decoded, float64(st.Size())/20)
	if lines[3] != want {
		t.Errorf("window line %q, want %q", lines[3], want)
	}
}

// flowkvctl checkpoints prints each checkpoint's chain depth: a job's
// generation N cuts read dN-1. A crash mid-cut leaves a ".tmp" staging
// directory with a half-written CUT; the listing skips it and exits 0.
func TestCheckpointsPrintsDepthAndSkipsStaging(t *testing.T) {
	job := killedJobRetaining(t, 2)
	for gen, want := range map[int64]string{2: "d1", 3: "d2"} {
		out := captureStdout(t, func() error { return cmdCheckpoints(filepath.Join(job, spe.GenDirName(gen))) })
		for _, worker := range []string{"s01-w00", "s01-w01"} {
			if !regexp.MustCompile(`(?m)^` + worker + `\s.*\s` + want + `\s+verified$`).MatchString(out) {
				t.Errorf("generation %d: no row %s ... %s verified:\n%s", gen, worker, want, out)
			}
		}
	}

	inj := faultfs.NewInjector(faultfs.OS)
	s, err := core.Open(core.AggHolistic, window.Fixed, core.Options{
		Dir: filepath.Join(t.TempDir(), "store"), Instances: 2, WriteBufferBytes: 256, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	for i := 0; i < 100; i++ {
		if err := s.Append([]byte(fmt.Sprintf("k%02d", i%7)), []byte("v"), window.Window{Start: 0, End: 100}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	parent := t.TempDir()
	if err := s.Checkpoint(filepath.Join(parent, "gen-1")); err != nil {
		t.Fatal(err)
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: filepath.Join("gen-2.tmp", ckpt.CutName), Nth: 2, Crash: true})
	if err := s.CheckpointDelta(filepath.Join(parent, "gen-2"), filepath.Join(parent, "gen-1"), nil); err == nil || !inj.Fired() {
		t.Fatalf("checkpoint under a crash mid-CUT: %v, fired %v", err, inj.Fired())
	}
	inj.Reset()
	if _, err := os.Stat(filepath.Join(parent, "gen-2.tmp", ckpt.CutName)); err != nil {
		t.Fatalf("the crash left no staging CUT: %v", err)
	}
	out := captureStdout(t, func() error { return cmdCheckpoints(parent) })
	if !strings.Contains(out, "gen-1 ") || strings.Contains(out, "gen-2") {
		t.Errorf("listing after a crash mid-cut, want gen-1 alone:\n%s", out)
	}
}
