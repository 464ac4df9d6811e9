package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/core/aur"
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
		// want is a kind this pattern's checkpoint must contain.
		want string
	}{
		{core.PatternAAR, window.Fixed, "aar-window-seg"},
		{core.PatternAUR, window.Session, "aur-stat-stream-seg"},
		{core.PatternRMW, window.Fixed, "rmw-delta-stream-seg"},
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
			for _, k := range []string{tc.want, "segment-manifest", "checkpoint-manifest", "app-metadata", "quarantine-marker"} {
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
// and a compaction and requires that `health` prints, per instance, what
// its data and index logs hold — and that the running store's counters,
// which the last line points to, account for those bytes.
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
	const ids, fired = 200, 150
	for i := 0; i < ids+fired; i++ {
		if i < ids {
			k, w := session(i)
			if err := st.Append(k, []byte("value"), w, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i >= fired { // sessions fire in the order they were opened
			k, w := session(i - fired)
			if vals, err := st.Get(k, w); err != nil || len(vals) != 1 {
				t.Fatalf("%s: %d values, err %v", k, len(vals), err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.BufferHits == 0 || stats.DiskHits == 0 || stats.BufferHits+stats.DiskHits != ids || stats.Compactions == 0 {
		t.Fatalf("stats: %d buffer hits, %d disk hits, %d compactions; want %d sessions consumed, some each way, and a compaction",
			stats.BufferHits, stats.DiskHits, stats.Compactions, ids)
	}
	if stats.FlushBytes+stats.CompactionBytes < stats.DiskBytes || stats.FlushBytes == 0 || stats.CompactionBytes == 0 {
		t.Errorf("stats: %d bytes flushed, %d compacted, %d on disk", stats.FlushBytes, stats.CompactionBytes, stats.DiskBytes)
	}
	datas, _ := filepath.Glob(filepath.Join(dir, "inst-*", "data-*.log"))
	indexes, _ := filepath.Glob(filepath.Join(dir, "inst-*", "index-*.log"))
	if len(datas) != 1 || len(indexes) != 1 {
		t.Fatalf("%d data and %d index logs", len(datas), len(indexes))
	}
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if size(datas[0])+size(indexes[0]) != stats.DiskBytes {
		t.Fatalf("logs of %d and %d bytes, the store counts %d on disk", size(datas[0]), size(indexes[0]), stats.DiskBytes)
	}
	printed := captureStdout(t, func() error { return cmdHealth(dir) })
	for _, want := range []string{
		fmt.Sprintf("aur log %s: ", filepath.Base(filepath.Dir(datas[0]))),
		fmt.Sprintf("in %d bytes of data log, located by ", size(datas[0])),
		fmt.Sprintf("in %d bytes of index log", size(indexes[0])),
		"core.Stats FlushBytes, CompactionBytes, BufferHits, DiskHits)",
		"2 log files: 2 clean",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("health does not report %q:\n%s", want, printed)
		}
	}
}

// TestIndexDecodesBlockIndexLog runs `flowkvctl index` over the index
// log of a real AUR instance that has flushed, compacted and flushed
// again, and checks the rows against the data log next to it: one row
// per live batch, every (data-off, data-len) pair locating a whole,
// checksum-clean frame, the rows contiguous where the log is.
func TestIndexDecodesBlockIndexLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := aur.Open(aur.Options{Dir: dir, WriteBufferBytes: 1 << 20, Predictor: window.SessionPredictor{Gap: 100}})
	if err != nil {
		t.Fatal(err)
	}
	session := func(i int) ([]byte, window.Window) {
		return []byte(fmt.Sprintf("user-%03d", i)), window.Window{Start: int64(i) * 10, End: int64(i)*10 + 100}
	}
	const ids = 120
	for i := 0; i < ids; i++ {
		k, w := session(i)
		if err := s.Append(k, []byte("value"), w, w.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids/2; i++ {
		if _, err := s.Get(session(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Compactions() == 0 {
		t.Fatal("store never compacted")
	}
	k, w := session(ids - 1)
	if err := s.Append(k, []byte("later"), w, w.Start+1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.LiveStates()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	indexes, _ := filepath.Glob(filepath.Join(dir, "index-*.log"))
	datas, _ := filepath.Glob(filepath.Join(dir, "data-*.log"))
	if len(indexes) != 1 || len(datas) != 1 {
		t.Fatalf("store dir holds %d index and %d data logs", len(indexes), len(datas))
	}
	data, err := os.ReadFile(datas[0])
	if err != nil {
		t.Fatal(err)
	}

	printed := captureStdout(t, func() error { return cmdIndex(indexes[0]) })
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	rows, total := lines[1:len(lines)-1], lines[len(lines)-1]
	// The compaction dropped the batches consumed before it; batches
	// consumed after it, and the one flushed after it, are still listed.
	if len(rows) <= live || len(rows) > ids {
		t.Fatalf("index printed %d rows for %d ids, %d of them live:\n%s", len(rows), ids, live, printed)
	}
	var end, sum int64
	for i, row := range rows {
		f := strings.Fields(row)
		if len(f) != 5 {
			t.Fatalf("row %d has %d columns: %q", i, len(f), row)
		}
		off, _ := strconv.ParseInt(f[3], 10, 64)
		n, _ := strconv.ParseInt(f[4], 10, 64)
		if off != end || off+n > int64(len(data)) {
			t.Fatalf("row %d locates [%d,%d) in a %d-byte data log, previous row ended at %d", i, off, off+n, len(data), end)
		}
		if _, used, err := binio.ReadRecordV(data[off:off+n], binio.FrameV1); err != nil || int64(used) != n {
			t.Fatalf("row %d (%q): frame at %d spans %d of %d bytes, err %v", i, row, off, used, n, err)
		}
		end, sum = off+n, sum+n
	}
	if end != int64(len(data)) {
		t.Errorf("rows cover %d of the data log's %d bytes", end, len(data))
	}
	if want := fmt.Sprintf("total indexed data: %d bytes", sum); total != want {
		t.Errorf("last line %q, want %q", total, want)
	}
}
