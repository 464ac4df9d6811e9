package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"flowkv/internal/binio"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "lsm")
	}
	if opts.MergeOperator == nil {
		opts.MergeOperator = AppendListOperator{}
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Destroy() })
	return db
}

func TestSkiplistOrdering(t *testing.T) {
	s := newSkiplist()
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("key-%04d", rng.Intn(500)))
		seq++
		s.insert(k, seq, kindPut, []byte("v"))
	}
	if s.len() != 2000 {
		t.Fatalf("len = %d", s.len())
	}
	var prevKey []byte
	var prevSeq uint64
	n := 0
	for it := s.iterator(); it.valid(); it.next() {
		k, sq, _, _ := it.entry()
		if prevKey != nil {
			if c := internalCompare(prevKey, prevSeq, k, sq); c >= 0 {
				t.Fatalf("order violated at %d: (%s,%d) !< (%s,%d)", n, prevKey, prevSeq, k, sq)
			}
		}
		prevKey = append(prevKey[:0], k...)
		prevSeq = sq
		n++
	}
	if n != 2000 {
		t.Fatalf("iterated %d entries", n)
	}
}

func TestSkiplistSeekGE(t *testing.T) {
	s := newSkiplist()
	for i := 0; i < 100; i += 2 {
		s.insert([]byte(fmt.Sprintf("k%03d", i)), uint64(i+1), kindPut, nil)
	}
	n := s.seekGE([]byte("k051"), ^uint64(0))
	if n == nil || string(n.key) != "k052" {
		t.Fatalf("seekGE(k051) = %v", n)
	}
	if n := s.seekGE([]byte("k999"), ^uint64(0)); n != nil {
		t.Fatalf("seekGE past end = %v", n)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 500 { // ~1% expected at 10 bits/key; allow 5%
		t.Errorf("false positive rate too high: %d/10000", fp)
	}
}

func TestPutGetBasic(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("b")); ok {
		t.Error("missing key found")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("k"), []byte("v1"))
	db.Put([]byte("k"), []byte("v2"))
	if v, _, _ := db.Get([]byte("k")); string(v) != "v2" {
		t.Errorf("overwrite: %q", v)
	}
	db.Delete([]byte("k"))
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Error("deleted key still found")
	}
	// Resurrect after delete.
	db.Put([]byte("k"), []byte("v3"))
	if v, ok, _ := db.Get([]byte("k")); !ok || string(v) != "v3" {
		t.Errorf("resurrect: %q,%v", v, ok)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 1024})
	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("no flush happened")
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("key-%04d: %q,%v,%v", i, v, ok, err)
		}
	}
}

func TestCompactionTriggersAndPreservesData(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 2048, L0CompactionTrigger: 2, BaseLevelBytes: 8 << 10})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i%300)), []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if st.FilesPerLevel[0] >= db.opts.L0CompactionTrigger {
		t.Errorf("L0 files %d not reduced by compaction", st.FilesPerLevel[0])
	}
	// Latest version of every key must win.
	for i := n - 300; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i%300)
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", k, ok, err)
		}
		if string(v) != fmt.Sprintf("val-%05d", i) {
			t.Fatalf("%s = %q, want val-%05d", k, v, i)
		}
	}
}

func TestMergeLazyAppend(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 512})
	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Merge([]byte("list"), []byte(fmt.Sprintf("elem-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := db.Get([]byte("list"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	elems, err := binio.SplitBytes(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != n {
		t.Fatalf("decoded %d elements, want %d", len(elems), n)
	}
	for i, e := range elems {
		if string(e) != fmt.Sprintf("elem-%03d", i) {
			t.Fatalf("element %d = %q: merge order violated", i, e)
		}
	}
}

func TestMergeWithBaseAndDelete(t *testing.T) {
	db := openTest(t, Options{})
	base := binio.PutBytes(nil, []byte("base"))
	db.Put([]byte("k"), base)
	db.Merge([]byte("k"), []byte("m1"))
	db.Merge([]byte("k"), []byte("m2"))
	v, ok, _ := db.Get([]byte("k"))
	if !ok {
		t.Fatal("missing")
	}
	elems, _ := binio.SplitBytes(v)
	if len(elems) != 3 || string(elems[0]) != "base" || string(elems[2]) != "m2" {
		t.Fatalf("elems = %q", elems)
	}
	// Delete cuts the chain: merges after the delete start fresh.
	db.Delete([]byte("k"))
	db.Merge([]byte("k"), []byte("fresh"))
	v, ok, _ = db.Get([]byte("k"))
	if !ok {
		t.Fatal("merge after delete should exist")
	}
	elems, _ = binio.SplitBytes(v)
	if len(elems) != 1 || string(elems[0]) != "fresh" {
		t.Fatalf("after delete: %q", elems)
	}
}

func TestMergeAcrossCompaction(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 512, L0CompactionTrigger: 2, BaseLevelBytes: 4 << 10})
	const keys = 20
	const per = 50
	for i := 0; i < keys*per; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i%keys))
		if err := db.Merge(k, []byte(fmt.Sprintf("v-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("test needs compactions")
	}
	for j := 0; j < keys; j++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%02d", j)))
		if err != nil || !ok {
			t.Fatal(err)
		}
		elems, err := binio.SplitBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(elems) != per {
			t.Fatalf("key-%02d: %d elements, want %d", j, len(elems), per)
		}
		// Order must survive compaction folding.
		prev := -1
		for _, e := range elems {
			var x int
			fmt.Sscanf(string(e), "v-%d", &x)
			if x <= prev {
				t.Fatalf("key-%02d: order violated: %q", j, elems)
			}
			prev = x
		}
	}
}

func TestScanRange(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 1024})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	it, err := db.Scan([]byte("key-020"), []byte("key-030"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "key-020" || got[9] != "key-029" {
		t.Fatalf("scan = %v", got)
	}
	// Sorted order is the LSM's defining property.
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("scan out of order")
		}
	}
}

func TestScanSeesNewestVersionsAndSkipsTombstones(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 256})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old"))
	}
	for i := 0; i < 50; i += 2 {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("new"))
	}
	for i := 1; i < 50; i += 4 {
		db.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	it, err := db.Scan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for ; it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok := got[k]
		switch {
		case i%4 == 1:
			if ok {
				t.Errorf("%s: tombstoned key visible", k)
			}
		case i%2 == 0:
			if v != "new" {
				t.Errorf("%s = %q, want new", k, v)
			}
		default:
			if v != "old" {
				t.Errorf("%s = %q, want old", k, v)
			}
		}
	}
}

func TestScanMergedLists(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 512})
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("k%d", i%3))
		db.Merge(k, []byte(fmt.Sprintf("%02d", i)))
	}
	it, err := db.Scan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		elems, err := binio.SplitBytes(it.Value())
		if err != nil {
			t.Fatal(err)
		}
		if len(elems) != 10 {
			t.Fatalf("%s: %d elems", it.Key(), len(elems))
		}
		n++
	}
	if n != 3 {
		t.Fatalf("scanned %d keys", n)
	}
}

func TestBlockCache(t *testing.T) {
	c := newBlockCache(1000)
	c.put(1, 0, make([]byte, 400))
	c.put(1, 400, make([]byte, 400))
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("miss on cached block")
	}
	c.put(2, 0, make([]byte, 400)) // evicts LRU (file 1 off 400)
	if _, ok := c.get(1, 400); ok {
		t.Error("evicted block still cached")
	}
	c.dropFile(1)
	if _, ok := c.get(1, 0); ok {
		t.Error("dropped file's block still cached")
	}
	if c.hitRatio() <= 0 {
		t.Error("hit ratio not tracked")
	}
	var nilCache *blockCache
	if _, ok := nilCache.get(0, 0); ok {
		t.Error("nil cache returned a block")
	}
	nilCache.put(0, 0, nil) // must not panic
	nilCache.dropFile(0)
}

func TestDBStats(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 512})
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 32))
	}
	st := db.Stats()
	if st.Flushes == 0 || st.DiskBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.FilesPerLevel) != maxLevels {
		t.Errorf("levels = %d", len(st.FilesPerLevel))
	}
}

func TestClosedErrors(t *testing.T) {
	db := openTest(t, Options{})
	db.Close()
	if err := db.Put(nil, nil); err != ErrClosed {
		t.Errorf("Put: %v", err)
	}
	if _, _, err := db.Get(nil); err != ErrClosed {
		t.Errorf("Get: %v", err)
	}
	if _, err := db.Scan(nil, nil); err != ErrClosed {
		t.Errorf("Scan: %v", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Errorf("Flush: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestMergeWithoutOperatorFails(t *testing.T) {
	db, err := Open(Options{Dir: filepath.Join(t.TempDir(), "x")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Destroy()
	if err := db.Merge([]byte("k"), []byte("v")); err == nil {
		t.Error("Merge without operator should fail")
	}
}

func TestQuickPutGetConsistency(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 4096, L0CompactionTrigger: 2, BaseLevelBytes: 16 << 10})
	model := make(map[string]string)
	f := func(op uint8, kRaw uint8, v string) bool {
		k := fmt.Sprintf("key-%03d", kRaw)
		switch op % 3 {
		case 0:
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				return false
			}
			model[k] = v
		case 1:
			if err := db.Delete([]byte(k)); err != nil {
				return false
			}
			delete(model, k)
		case 2:
			got, ok, err := db.Get([]byte(k))
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
	// Final full verification via scan.
	it, err := db.Scan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for ; it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(model) {
		t.Fatalf("scan has %d keys, model has %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "lsm"), MergeOperator: AppendListOperator{}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	val := bytes.Repeat([]byte("v"), 84)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "lsm"), MergeOperator: AppendListOperator{}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	val := bytes.Repeat([]byte("v"), 84)
	const n = 100000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%08d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get([]byte(fmt.Sprintf("key-%08d", i%n))); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeAppend(b *testing.B) {
	db, err := Open(Options{Dir: filepath.Join(b.TempDir(), "lsm"), MergeOperator: AppendListOperator{}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Destroy()
	val := bytes.Repeat([]byte("v"), 84)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Merge([]byte(fmt.Sprintf("key-%05d", i%1000)), val); err != nil {
			b.Fatal(err)
		}
	}
}
