package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/nexmark"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

func bidsByBidder(ev nexmark.Event, emit func(spe.Tuple)) {
	if ev.Kind == nexmark.KindBid {
		emit(spe.Tuple{Key: []byte{byte(ev.Bid.Bidder), byte(ev.Bid.Bidder >> 8)}, Value: []byte{byte(ev.Bid.Price)}, TS: ev.Bid.DateTime})
	}
}

// TestCountFSMatchesScript drives a scripted op sequence through the
// counting filesystem and checks every counter, byte for byte, and that
// the bytes landed.
func TestCountFSMatchesScript(t *testing.T) {
	dir := t.TempDir()
	c := newCountFS(faultfs.OS, nil)
	a := filepath.Join(dir, "a.log")
	f, err := c.Create(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{[]byte("hello "), []byte("world"), []byte("!")} {
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.log")
	steps := []error{c.Link(a, b), c.Rename(b, filepath.Join(dir, "c.log")), c.SyncDir(dir), c.Remove(a)}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	got, err := c.ReadFile(filepath.Join(dir, "c.log"))
	if err != nil || string(got) != "hello world!" {
		t.Fatalf("content = %q, %v", got, err)
	}
	want := [numFSOps]int64{fsWrite: 3, fsPread: 1, fsFsync: 1, fsSyncDir: 1, fsCreate: 1, fsRemove: 1, fsRename: 1, fsLink: 1}
	for op, n := range want {
		if c.calls[op].Load() != n {
			t.Errorf("%s calls = %d, want %d", fsOpNames[op], c.calls[op].Load(), n)
		}
	}
	if c.writeBytes.Load() != 12 || c.preadBytes.Load() != 5 {
		t.Errorf("bytes written %d read %d, want 12 and 5", c.writeBytes.Load(), c.preadBytes.Load())
	}
}

// readFromSpy is a faultfs.File that records whether the copy reached
// it through ReadFrom, as *os.File's kernel copy path requires.
type readFromSpy struct {
	faultfs.File
	viaReadFrom bool
	buf         bytes.Buffer
}

func (s *readFromSpy) ReadFrom(r io.Reader) (int64, error) {
	s.viaReadFrom = true
	return s.buf.ReadFrom(r)
}

func TestCountFilePreservesZeroCopyPath(t *testing.T) {
	c := newCountFS(faultfs.OS, nil)
	spy := &readFromSpy{}
	dst, _ := c.wrap(spy, nil, "spy")
	// Like the store's io.SectionReader, the source has no WriteTo, so
	// io.Copy must go through the destination's ReadFrom.
	n, err := io.Copy(dst, struct{ io.Reader }{bytes.NewReader(make([]byte, 1000))})
	if err != nil || n != 1000 {
		t.Fatalf("copy = %d, %v", n, err)
	}
	if !spy.viaReadFrom {
		t.Error("io.Copy did not reach the wrapped file's ReadFrom")
	}
	if c.writeBytes.Load() != 1000 || c.calls[fsWrite].Load() != 1 {
		t.Errorf("accounted %d bytes in %d writes, want 1000 in 1", c.writeBytes.Load(), c.calls[fsWrite].Load())
	}
	// And over the real filesystem, where os.File implements ReadFrom.
	f, err := c.Create(filepath.Join(t.TempDir(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(io.ReaderFrom); !ok {
		t.Error("counted file hides io.ReaderFrom")
	}
}

// TestBlockSourceReplay checks that a stream read in one go, and the
// same stream re-read after seeking back to recorded offsets, are byte
// identical, including across block replays (shifted event time).
func TestBlockSourceReplay(t *testing.T) {
	blk := NewBlock(7, 2_000, 0, bidsByBidder)
	total := int64(blk.Len())*2 + 100 // two and a bit replays
	type rec struct {
		key, val string
		ts       int64
	}
	read := func(s *blockSource, n int64) []rec {
		var out []rec
		for i := int64(0); i < n; i++ {
			tu, ok := s.Next()
			if !ok {
				break
			}
			out = append(out, rec{string(tu.Key), string(tu.Value), tu.TS})
		}
		return out
	}
	all := read(newBlockSource(blk, total), total+1)
	if int64(len(all)) != total {
		t.Fatalf("stream length %d, want %d", len(all), total)
	}
	for i := 1; i < len(all); i++ {
		if all[i].ts < all[i-1].ts {
			t.Fatalf("timestamps regress at %d: %d after %d", i, all[i].ts, all[i-1].ts)
		}
	}
	s := newBlockSource(blk, total)
	for _, off := range []int64{0, 1, int64(blk.Len()) - 1, int64(blk.Len()), int64(blk.Len()) + 17, total - 1, total} {
		if err := s.SeekTo(off); err != nil {
			t.Fatal(err)
		}
		if s.Offset() != off {
			t.Fatalf("Offset after SeekTo(%d) = %d", off, s.Offset())
		}
		got := read(s, 50)
		want := all[off:min(off+50, total)]
		if len(got) != len(want) {
			t.Fatalf("from %d: %d tuples, want %d", off, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("from %d: tuple %d = %+v, want %+v", off, i, got[i], want[i])
			}
		}
	}
	if err := s.SeekTo(total + 1); err == nil {
		t.Error("SeekTo past the end succeeded")
	}
}

// TestPacerStampsDueTimes checks the open loop: tuples carry their due
// time on a fixed schedule, and when the consumer stalls the stamps
// stay on schedule while the reported lag grows.
func TestPacerStampsDueTimes(t *testing.T) {
	p := newPacer(10_000) // batches of 10 every 1 ms
	var due []int64
	for i := 0; i < 100; i++ {
		if i == 50 {
			time.Sleep(30 * time.Millisecond) // the consumer stalls
		}
		due = append(due, p.release())
	}
	for i, d := range due {
		want := p.start + int64(i/10)*int64(time.Millisecond)
		if d != want {
			t.Fatalf("tuple %d due %d, want %d", i, d, want)
		}
	}
	lags := p.lagsMs()
	if len(lags) != 10 {
		t.Fatalf("%d batches, want 10", len(lags))
	}
	if lags[5] < 25 {
		t.Errorf("lag of the batch after the stall = %.2f ms, want about 25 or more", lags[5])
	}
	if lags[4] > 20 {
		t.Errorf("lag before the stall = %.2f ms", lags[4])
	}
	// A result stamped while batch 5 was being released resolves to batch
	// 5's due time, so the stall is charged to it.
	if got := p.dueAt(p.released[5] + 1); got != p.due[5] {
		t.Errorf("dueAt = %d, want %d", got, p.due[5])
	}
	// A result fired by a tuple carries the tuple's own due time: it is
	// used as it is, not mapped to whichever batch was released at that
	// instant (an earlier one, whenever the generator lags).
	if got := p.dueAt(p.due[7]); got != p.due[7] {
		t.Errorf("dueAt(due time of batch 7) = %d, want %d", got, p.due[7])
	}
	if p.backlogEvents() <= 0 {
		t.Error("no backlog reported after a stall the schedule could not absorb")
	}
}

// TestTracedBackendKeepsCapabilities checks that wrapping a FlowKV
// backend hides none of the optional interfaces the SPE probes for.
func TestTracedBackendKeepsCapabilities(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	assigner := window.FixedAssigner{Size: 1000}
	inner, err := statebackend.Open(statebackend.Config{Kind: statebackend.KindFlowKV, Dir: dir,
		Agg: core.AggHolistic, WindowKind: window.Fixed, Assigner: assigner})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tot := &backendTotals{}
	b := tr.traceBackend(inner, dir, 0, tot)
	defer b.Destroy()

	if _, ok := statebackend.AsCheckpointer(b); !ok {
		t.Error("AsCheckpointer lost")
	}
	cp, ok := statebackend.AsDeltaCheckpointer(b)
	if !ok {
		t.Fatal("AsDeltaCheckpointer lost")
	}
	if _, isTraced := cp.(*tracedBackend); !isTraced {
		t.Error("delta checkpoints bypass the traced backend")
	}
	if _, ok := statebackend.AsPartitionedWindowReader(b); !ok {
		t.Error("AsPartitionedWindowReader lost")
	}
	if _, ok := statebackend.FlowKVStats(b); !ok {
		t.Error("FlowKVStats lost")
	}
	if _, ok := statebackend.FlowKVHealth(b); !ok {
		t.Error("FlowKVHealth lost")
	}

	w := window.Window{Start: 0, End: 1000}
	if err := b.Append([]byte("k"), []byte("v"), w, 1); err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(t.TempDir(), "gen-000001", "s00-w00")
	if err := cp.CheckpointDeltaMeta(gen, "", []byte("meta")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadWindow(w, func([]byte, [][]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tb := b.(*tracedBackend)
	if tb.ops[opAppend] != 1 || tb.ops[opCheckpoint] != 1 || tb.ops[opReadWindow] != 1 {
		t.Errorf("ops = %v", tb.ops)
	}
	if tag, _ := tr.genTag[0].Load().(string); tag != "gen-000001" {
		t.Errorf("generation tag = %q", tag)
	}
}

func TestOracleModels(t *testing.T) {
	key := func(k byte, ts, price int64) spe.Tuple {
		return spe.Tuple{Key: []byte{k}, Value: []byte{byte(price << 1)}, TS: ts} // zig-zag varint of a small price
	}
	tuples := []spe.Tuple{key('a', 0, 5), key('a', 10, 9), key('b', 20, 3), key('a', 1000, 1), key('b', 1030, 2)}
	blk := &Block{spanMs: 2000}
	for _, tu := range tuples {
		blk.ents = append(blk.ents, blockEnt{off: uint32(len(blk.arena)), klen: 1, vlen: 1, ts: tu.TS})
		blk.arena = append(append(blk.arena, tu.Key...), tu.Value...)
	}
	count := func(m model, windowMs, n int64) int64 {
		ds, err := expect(m, windowMs, blk, []int64{n})
		if err != nil {
			t.Fatal(err)
		}
		return ds[0].Count
	}
	// Fixed 1 s windows: {a,b} in [0,1000), {a,b} in [1000,2000).
	if got := count(modelFixedMax, 1000, 5); got != 4 {
		t.Errorf("fixed-max results = %d, want 4", got)
	}
	// Sessions with a 100 ms gap: a@0-10, b@20, a@1000, b@1030.
	if got := count(modelSessionCount, 100, 5); got != 4 {
		t.Errorf("session results = %d, want 4", got)
	}
	// With a 2 s gap every key has one session, however far the cut.
	if got := count(modelSessionMedian, 2000, 3); got != 2 {
		t.Errorf("session results at cut 3 = %d, want 2", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := defByName(EndToEnd, "events_per_s") // higher is better
	def.Bound = 0.07
	m := func(v, lo, hi float64) Metric { return Metric{MetricDef: def, Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		a, b Metric
		want string
	}{
		{m(100, 99, 101), m(101, 100, 102), "same"},
		{m(100, 99, 101), m(90, 89, 91), "worse"},
		{m(100, 99, 101), m(110, 109, 111), "better"},
		{m(100, 90, 110), m(90, 89, 91), "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestBenchmarkJSONInSync fails when BENCHMARK.json at the repository
// root no longer says what the benchmark reports.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `flowkvbench -benchmark-json`")
	}
	if n := len(ContractPerLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestREADMEInSync fails when README.md's workload and metric tables no
// longer state the rates, latency limits and bounds the code runs with.
func TestREADMEInSync(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) string {
		for _, line := range strings.Split(string(readme), "\n") {
			if strings.HasPrefix(line, "| `"+name+"` |") {
				return line
			}
		}
		t.Errorf("README.md has no table row for %s", name)
		return ""
	}
	rate := func(v float64) string {
		if v >= 1e6 {
			return fmt.Sprintf("%g M/s", v/1e6)
		}
		return fmt.Sprintf("%g k/s", v/1e3)
	}
	for _, w := range Workloads {
		want := fmt.Sprintf("sat %s, paced %s, SLO %g ms", rate(w.SatRate), rate(w.PacedRate), w.SLOMs)
		if !strings.Contains(row(w.Name), want) {
			t.Errorf("README.md row of %s does not say %q", w.Name, want)
		}
	}
	for _, d := range EndToEnd {
		bound := fmt.Sprintf("%g%%", math.Round(d.Bound*1000)/10)
		if d.Abs {
			bound = fmt.Sprintf("+%g abs", d.Bound)
		}
		gated := "no"
		if d.Gate {
			gated = "yes"
		}
		want := fmt.Sprintf("| `%s` | %s | %s | %s | %s |", d.Name, d.Unit, d.Better, bound, gated)
		if !strings.HasPrefix(row(d.Name), want) {
			t.Errorf("README.md row of %s does not start with %q", d.Name, want)
		}
	}
}

// TestQuickSmoke runs all four workloads end to end at smoke size, with
// the oracle and the golden digests checking every run, untraced and
// traced.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipelines for several seconds")
	}
	for _, trace := range []bool{false, true} {
		cfg := QuickConfig(Config{Seed: 1, Trace: trace, OutDir: t.TempDir()})
		rep, err := Run(Workloads, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Claim != nil {
			t.Error("the benchmark claims a gain")
		}
		for _, r := range rep.Workloads {
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d errors=%v", r.Workload, trace, r.Correct, r.Attempted, r.Errors)
			}
			line, err := ContractLine(r)
			if err != nil || len(line) == 0 {
				t.Errorf("%s: contract line: %v", r.Workload, err)
			}
		}
		if err := WriteOutputs(cfg.OutDir, rep); err != nil {
			t.Fatal(err)
		}
	}
}
