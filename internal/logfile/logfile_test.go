package logfile

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
	"flowkv/internal/metrics"
)

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var bd metrics.Breakdown
	l, err := Create(filepath.Join(dir, "a.log"), &bd)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var want [][]byte
	for i := 0; i < 500; i++ {
		p := []byte(fmt.Sprintf("record-%04d", i))
		if _, _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	sc, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	var i int
	for sc.Scan() {
		if !bytes.Equal(sc.Record(), want[i]) {
			t.Fatalf("record %d mismatch: %q", i, sc.Record())
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("scanned %d records, want %d", i, len(want))
	}
	if bd.BytesWritten() == 0 || bd.BytesRead() == 0 {
		t.Error("I/O accounting missing")
	}
}

func TestReadRecordAt(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "a.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type loc struct {
		off int64
		n   int
	}
	var locs []loc
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 10+i)
		off, n, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc{off, n})
		want = append(want, p)
	}
	// Random-order positional reads.
	for i := len(locs) - 1; i >= 0; i-- {
		got, err := l.ReadRecordAt(locs[i].off, locs[i].n)
		if err != nil {
			t.Fatalf("ReadRecordAt(%d): %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadRangeAtCoversAdjacentRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "a.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	off0, n0, _ := l.Append([]byte("first"))
	_, n1, _ := l.Append([]byte("second"))
	raw, err := l.ReadRangeAt(off0, n0+n1)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := l.DecodeRecord(raw[:n0], off0)
	if err != nil || string(p0) != "first" {
		t.Fatalf("first record: %q %v", p0, err)
	}
	p1, err := l.DecodeRecord(raw[n0:], off0+int64(n0))
	if err != nil || string(p1) != "second" {
		t.Fatalf("second record: %q %v", p1, err)
	}
}

func TestOpenRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append the prefix of a real frame, simulating a torn write (a crash
	// cuts the stream mid-frame, so the tail is a valid-frame prefix).
	full := binio.AppendRecordV(nil, []byte("torn-away-record"), binio.FrameV1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, _, err := l2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	sc, err := l2.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sc.Scan() {
		got = append(got, string(sc.Record()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "keep-me" || got[1] != "after-recovery" {
		t.Fatalf("recovered records = %v", got)
	}
}

func TestScannerFromOffset(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "a.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("one"))
	off, _, _ := l.Append([]byte("two"))
	l.Append([]byte("three"))
	sc, err := l.Scanner(off)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sc.Scan() {
		got = append(got, string(sc.Record()))
	}
	if len(got) != 2 || got[0] != "two" {
		t.Fatalf("got %v, want [two three]", got)
	}
}

// TestScannerBufferIsLentNotShared pins the scan buffer's ownership
// rule: a scan that runs to its end (or is closed) hands the log's
// buffer to the next scan, and a scanner still mid-scan keeps it — a
// second scanner opened meanwhile reads into a buffer of its own, so
// neither sees the other's bytes.
func TestScannerBufferIsLentNotShared(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "a.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if _, _, err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Scan() || string(first.Record()) != "record-0000" {
		t.Fatalf("first record = %q", first.Record())
	}
	// A full second scan while the first is parked on record 0.
	second, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if second.lender != nil {
		t.Fatal("second scanner borrowed the buffer the first still holds")
	}
	for i := 0; second.Scan(); i++ {
		if want := fmt.Sprintf("record-%04d", i); string(second.Record()) != want {
			t.Fatalf("second scan record %d = %q", i, second.Record())
		}
	}
	for i := 1; i < n; i++ {
		if !first.Scan() || string(first.Record()) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("first scan record %d = %q after an interleaved scan", i, first.Record())
		}
	}
	if first.Scan() || first.Err() != nil {
		t.Fatalf("first scan did not end cleanly: %v", first.Err())
	}
	// The first scan ended: the buffer is free, and a closed scanner
	// frees it too.
	third, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if third.lender != l {
		t.Fatal("a finished scan did not hand the buffer back")
	}
	third.Scan()
	third.Close()
	if third.Scan() {
		t.Fatal("closed scanner kept scanning")
	}
	fourth, err := l.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.lender != l {
		t.Fatal("a closed scan did not hand the buffer back")
	}
}

func TestClosedOperations(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "a.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Errorf("double close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("Sync on closed: %v, want ErrClosed", err)
	}
	if err := l.Flush(); err != ErrClosed {
		t.Errorf("Flush on closed: %v, want ErrClosed", err)
	}
	if _, _, err := l.Append(nil); err != ErrClosed {
		t.Errorf("Append on closed: %v", err)
	}
	if _, err := l.ReadRecordAt(0, 0); err != ErrClosed {
		t.Errorf("ReadRecordAt on closed: %v", err)
	}
	if _, err := l.Scanner(0); err != ErrClosed {
		t.Errorf("Scanner on closed: %v", err)
	}
}

func TestRemoveOnClosedLogStillUnlinks(t *testing.T) {
	// The AAR unlink-after-read path may race an error-path Close with the
	// final Remove; Remove must stay effective (and non-erroring) on an
	// already-closed log even though Close itself reports ErrClosed.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("x"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Errorf("Remove on closed log: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("file still exists after Remove on closed log")
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("x"))
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("file still exists after Remove")
	}
}

func TestSync(t *testing.T) {
	dir := t.TempDir()
	var bd metrics.Breakdown
	l, err := Create(filepath.Join(dir, "a.log"), &bd)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("durable"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != l.Size() {
		t.Errorf("on-disk size %d != logical size %d after Sync", info.Size(), l.Size())
	}
}

func TestDirDiskUsageAndRemove(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	name := SegmentName("data", 0)
	l, err := d.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(bytes.Repeat([]byte("z"), 1000))
	l.Close()
	usage, err := d.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	if usage < 1000 {
		t.Errorf("DiskUsage = %d, want >= 1000", usage)
	}
	if err := d.Remove(name); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(name); err != nil {
		t.Errorf("removing a missing file should be a no-op, got %v", err)
	}
	usage, _ = d.DiskUsage()
	if usage != 0 {
		t.Errorf("DiskUsage after remove = %d", usage)
	}
	if err := d.RemoveAll(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l, err := Create(filepath.Join(b.TempDir(), "bench.log"), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("v"), 84)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialScan(b *testing.B) {
	l, err := Create(filepath.Join(b.TempDir(), "bench.log"), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("v"), 84)
	for i := 0; i < 100000; i++ {
		l.Append(payload)
	}
	b.SetBytes(l.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := l.Scanner(0)
		if err != nil {
			b.Fatal(err)
		}
		for sc.Scan() {
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteBufferIsRecycledClean: a log closed healthy hands its write
// buffer to the next log, empty; a poisoned log's buffer — sticky error,
// suspect bytes, possibly still read by a write abandoned at the deadline
// — never comes back out of the pool, whether the log is closed poisoned
// or reopened at its durable offset.
func TestWriteBufferIsRecycledClean(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	create := func(name string) *Log {
		t.Helper()
		l, err := CreateFS(inj, filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// drain empties the pool and returns what it held.
	drain := func() map[*bufio.Writer]bool {
		held := make(map[*bufio.Writer]bool)
		for i := 0; i < 64; i++ {
			held[writers.Get().(*bufio.Writer)] = true
		}
		return held
	}

	// Healthy: the buffer goes back, and the next log starts empty. (Under
	// the race detector sync.Pool drops a Put now and then, so reuse is
	// asserted over many logs, by what they allocate.)
	drain()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const churn = 64
	for i := 0; i < churn; i++ {
		a := create("a.log")
		if _, _, err := a.Append([]byte("from-a")); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > churn*ioBufBytes/2 {
		t.Errorf("%d logs opened and closed in turn allocated %d bytes: their %d-byte write buffers are not being reused",
			churn, got, ioBufBytes)
	}
	b := create("b.log")
	if b.w.Buffered() != 0 {
		t.Fatalf("a recycled buffer came back holding %d bytes", b.w.Buffered())
	}
	if _, _, err := b.Append([]byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "b.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want := binio.AppendRecordV(nil, []byte("from-b"), binio.FrameV1); !bytes.Equal(got, want) {
		t.Fatalf("b.log holds %q, want only its own record", got)
	}

	// Poisoned and closed, poisoned and reopened: neither buffer is pooled.
	drain()
	for _, reopen := range []bool{false, true} {
		p := create(fmt.Sprintf("p-%v.log", reopen))
		pw := p.w
		if _, _, err := p.Append([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
		inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, Err: faultfs.ErrDiskIO})
		if err := p.Flush(); err == nil || p.Poisoned() == nil {
			t.Fatalf("flush under a write fault: %v, poisoned %v", err, p.Poisoned())
		}
		inj.Reset()
		if reopen {
			if err := p.ReopenAtDurable(); err != nil {
				t.Fatal(err)
			}
			if p.w == pw {
				t.Fatal("the reopened log kept its poisoned buffer")
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		} else if err := p.Close(); err == nil {
			t.Fatal("closing a poisoned log reported success")
		}
		if drain()[pw] {
			t.Fatalf("a poisoned log's write buffer was handed out again (reopen=%v)", reopen)
		}
	}

	// And whatever a buffer went through, the next log to take it works.
	c := create("c.log")
	if _, _, err := c.Append([]byte("from-c")); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("a log on a recycled buffer inherited an error: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealReleasesTheWriteBuffer: a sealed log has flushed what it held
// and given its buffer away, yet reads, syncs, scrubs and closes like any
// other; only appends are refused.
func TestSealReleasesTheWriteBuffer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, n, err := l.Append([]byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if l.w != nil {
		t.Fatal("a sealed log still holds its write buffer")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.Size() {
		t.Fatalf("the file holds %v of the log's %d bytes after Seal (%v)", fi.Size(), l.Size(), err)
	}
	if err := l.Seal(); err != nil {
		t.Fatalf("sealing a sealed log: %v", err)
	}
	if _, _, err := l.Append([]byte("late")); err != ErrSealed {
		t.Fatalf("Append on a sealed log: %v, want ErrSealed", err)
	}
	if got, err := l.ReadRecordAt(off, n); err != nil || string(got) != "kept" {
		t.Fatalf("ReadRecordAt on a sealed log: %q, %v", got, err)
	}
	if got, err := l.ReadRecordAtRaw(off, make([]byte, n)); err != nil || string(got) != "kept" {
		t.Fatalf("ReadRecordAtRaw on a sealed log: %q, %v", got, err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush on a sealed log: %v", err)
	}
	if err := l.Sync(); err != nil || l.DurableOffset() != l.Size() {
		t.Fatalf("Sync on a sealed log: %v, durable %d of %d", err, l.DurableOffset(), l.Size())
	}
	if res, err := l.Scrub(); err != nil || res.Records != 1 {
		t.Fatalf("Scrub on a sealed log: %+v, %v", res, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close on a sealed log: %v", err)
	}
	if err := l.Seal(); err != ErrClosed {
		t.Fatalf("Seal on a closed log: %v, want ErrClosed", err)
	}
}
