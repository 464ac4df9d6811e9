package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"flowkv/internal/binio"
	"flowkv/internal/metrics"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "faster")
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Destroy() })
	return db
}

func TestUpsertRead(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Upsert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Read([]byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Read = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := db.Read([]byte("missing")); ok {
		t.Error("missing key found")
	}
}

func TestInPlaceUpdate(t *testing.T) {
	db := openTest(t, Options{})
	db.Upsert([]byte("k"), []byte("aaaa"))
	before := db.Stats().LogBytes
	// Same-size update in the mutable region must not grow the log.
	db.Upsert([]byte("k"), []byte("bbbb"))
	if got := db.Stats().LogBytes; got != before {
		t.Errorf("log grew from %d to %d on in-place update", before, got)
	}
	v, _, _ := db.Read([]byte("k"))
	if string(v) != "bbbb" {
		t.Errorf("value = %q", v)
	}
	// Different size appends a new record.
	db.Upsert([]byte("k"), []byte("cc"))
	if got := db.Stats().LogBytes; got == before {
		t.Error("size-changing update should append")
	}
	v, _, _ = db.Read([]byte("k"))
	if string(v) != "cc" {
		t.Errorf("value = %q", v)
	}
}

func TestDelete(t *testing.T) {
	db := openTest(t, Options{})
	db.Upsert([]byte("k"), []byte("v"))
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Read([]byte("k")); ok {
		t.Error("deleted key still readable")
	}
	if err := db.Delete([]byte("never-existed")); err != nil {
		t.Errorf("deleting a missing key: %v", err)
	}
}

func TestRMWCounter(t *testing.T) {
	db := openTest(t, Options{})
	inc := func(old []byte) []byte {
		var c uint64
		if old != nil {
			c = binary.LittleEndian.Uint64(old)
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], c+1)
		return out[:]
	}
	for i := 0; i < 10000; i++ {
		if err := db.RMW([]byte("ctr"), inc); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, _ := db.Read([]byte("ctr"))
	if !ok || binary.LittleEndian.Uint64(v) != 10000 {
		t.Fatalf("counter = %v %v", v, ok)
	}
	// Fixed-size RMW should be in place: log stays tiny.
	if st := db.Stats(); st.LogBytes > 1024 {
		t.Errorf("log is %d bytes after 10k in-place RMWs", st.LogBytes)
	}
}

func TestSpillToDiskAndReadBack(t *testing.T) {
	// Memory region far smaller than the data set forces disk reads.
	db := openTest(t, Options{MemoryBytes: 4096})
	const n = 500
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < n; i++ {
		if err := db.Upsert([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Read([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("key-%04d: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestSpillPreservesRecordBoundaries(t *testing.T) {
	// Values of varying sizes around the spill threshold.
	db := openTest(t, Options{MemoryBytes: 1024})
	want := make(map[string][]byte)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 1+i%97)
		want[k] = v
		if err := db.Upsert([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		got, ok, err := db.Read([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("%s: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestAppendListReadCopyUpdate(t *testing.T) {
	var bd metrics.Breakdown
	db := openTest(t, Options{MemoryBytes: 2048, Breakdown: &bd})
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.AppendList([]byte("list"), []byte(fmt.Sprintf("e%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := db.Read([]byte("list"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	elems, err := binio.SplitBytes(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != n {
		t.Fatalf("%d elements, want %d", len(elems), n)
	}
	for i, e := range elems {
		if string(e) != fmt.Sprintf("e%03d", i) {
			t.Fatalf("element %d = %q", i, e)
		}
	}
	// The defining pathology: the log holds many superseded copies of the
	// growing list, so total bytes written vastly exceed the payload.
	payload := int64(n * 4)
	if w := bd.BytesWritten() + db.Stats().LogBytes; w < 10*payload {
		t.Errorf("append I/O amplification missing: wrote ~%d bytes for %d payload", w, payload)
	}
}

func TestCompactionReclaims(t *testing.T) {
	db := openTest(t, Options{MemoryBytes: 2048, MaxSpaceAmplification: 1.5})
	// Size-changing overwrites create garbage.
	for round := 0; round < 60; round++ {
		for i := 0; i < 10; i++ {
			v := bytes.Repeat([]byte("v"), 50+round%3)
			if err := db.Upsert([]byte(fmt.Sprintf("k%d", i)), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction despite churn")
	}
	if st.Keys != 10 {
		t.Fatalf("keys = %d", st.Keys)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := db.Read([]byte(fmt.Sprintf("k%d", i))); !ok || err != nil {
			t.Fatalf("k%d lost after compaction: %v", i, err)
		}
	}
}

func TestSyncCostModel(t *testing.T) {
	db := openTest(t, Options{})
	db.Upsert([]byte("k"), []byte("v"))
	db.Read([]byte("k"))
	if ops := db.Stats().EpochOps; ops == 0 {
		t.Error("sync cost model recorded no epoch operations")
	}
	nosync := openTest(t, Options{NoSync: true})
	nosync.Upsert([]byte("k"), []byte("v"))
	if ops := nosync.Stats().EpochOps; ops != 0 {
		t.Errorf("NoSync recorded %d epoch ops", ops)
	}
}

func TestFlushCheckpoint(t *testing.T) {
	db := openTest(t, Options{})
	db.Upsert([]byte("k"), []byte("v"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// After flush the record lives on disk; reads must still work.
	v, ok, err := db.Read([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("after flush: %q,%v,%v", v, ok, err)
	}
	if err := db.Flush(); err != nil {
		t.Errorf("empty flush: %v", err)
	}
}

func TestClosedErrors(t *testing.T) {
	db := openTest(t, Options{})
	db.Close()
	if err := db.Upsert(nil, nil); err != ErrClosed {
		t.Errorf("Upsert: %v", err)
	}
	if _, _, err := db.Read(nil); err != ErrClosed {
		t.Errorf("Read: %v", err)
	}
	if err := db.Delete(nil); err != ErrClosed {
		t.Errorf("Delete: %v", err)
	}
	if err := db.RMW(nil, func(b []byte) []byte { return b }); err != ErrClosed {
		t.Errorf("RMW: %v", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Errorf("Flush: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestQuickModelConsistency(t *testing.T) {
	db := openTest(t, Options{MemoryBytes: 2048, MaxSpaceAmplification: 1.5})
	model := make(map[string]string)
	f := func(op uint8, kRaw uint8, v string) bool {
		k := fmt.Sprintf("key-%02d", kRaw%50)
		switch op % 3 {
		case 0:
			if err := db.Upsert([]byte(k), []byte(v)); err != nil {
				return false
			}
			model[k] = v
		case 1:
			if err := db.Delete([]byte(k)); err != nil {
				return false
			}
			delete(model, k)
		case 2:
			got, ok, err := db.Read([]byte(k))
			if err != nil {
				return false
			}
			want, exists := model[k]
			if ok != exists {
				return false
			}
			if ok && string(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRMWInPlace(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "faster")})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	inc := func(old []byte) []byte {
		var c uint64
		if old != nil {
			c = binary.LittleEndian.Uint64(old)
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], c+1)
		return out[:]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.RMW([]byte(fmt.Sprintf("k%05d", i%10000)), inc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendListAmplification(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "faster"), MemoryBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	elem := bytes.Repeat([]byte("v"), 84)
	b.SetBytes(int64(len(elem)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AppendList([]byte(fmt.Sprintf("k%03d", i%100)), elem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPoint(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "faster"), MemoryBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	val := bytes.Repeat([]byte("v"), 84)
	const n = 100000
	for i := 0; i < n; i++ {
		db.Upsert([]byte(fmt.Sprintf("key-%08d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Read([]byte(fmt.Sprintf("key-%08d", i%n))); err != nil || !ok {
			b.Fatal(err)
		}
	}
}
