package rmw

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// TestFailedEvictionReattachesExactlyTheVictims fails the disk in the
// middle of an eviction's batch. The identities the eviction did not pick
// must not notice: still buffered, same values. Every victim is either
// where the log accepted it — indexed, and readable from the poisoned
// log's retained tail — or back in the buffer; none is lost, none is in
// both places, and after the disk heals every acknowledged Put reads back.
func TestFailedEvictionReattachesExactlyTheVictims(t *testing.T) {
	// Aggregates of 1 KiB and a 2 MiB buffer: a quarter of the buffer is
	// half a megabyte, twice the log's write buffer, so the batch reaches
	// the file — and the fault — while it is being appended.
	const bufBytes, valLen = 2 << 20, 1 << 10
	inj := faultfs.NewInjector(faultfs.OS)
	s := openTest(t, Options{WriteBufferBytes: bufBytes, FS: inj})
	acked := make(map[id]string)
	next := func(i int) (id, string) {
		e := int64(100 + i%13)
		return id{key: fmt.Sprintf("id-%05d", i), w: window.Window{Start: e - 100, End: e}},
			fmt.Sprintf("%0*d", valLen, i)
	}
	i := 0
	for ; ; i++ {
		s.mu.Lock()
		last := s.overCap(s.bufBytes+valLen, s.buffered+1)
		s.mu.Unlock()
		if last {
			break
		}
		ident, v := next(i)
		if err := s.Put([]byte(ident.key), ident.w, []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[ident] = v
	}
	if s.FlushBytes() != 0 {
		t.Fatal("the buffer spilled before it was full")
	}

	inj.SetRule(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "rmw-", Class: faultfs.ClassPersistent, Err: faultfs.ErrDiskIO})
	ident, v := next(i)
	err := s.Put([]byte(ident.key), ident.w, []byte(v))
	if !errors.Is(err, faultfs.ErrDiskIO) || !inj.Fired() {
		t.Fatalf("the overflowing Put: err=%v fired=%v, want the injected disk error", err, inj.Fired())
	}
	acked[ident] = v // applied to the buffer before its flush failed

	// The victims the eviction must have picked, worked out the slow way.
	all := make([]id, 0, len(acked))
	for a := range acked {
		all = append(all, a)
	}
	sort.Slice(all, func(i, j int) bool { return endsLater(all[i], all[j]) })
	k := (len(all) + 3) / 4
	s.mu.Lock()
	var reattached, indexed int
	var bytes int64
	for n, a := range all {
		sl := s.table[a]
		v, inBuf, inIndex := sl.agg, sl.buffered, sl.indexed
		if sl.flushing {
			t.Errorf("%v is still in flight", a)
		}
		if inBuf {
			bytes += int64(len(v))
		}
		switch {
		case inBuf && inIndex:
			t.Errorf("%v is both buffered and indexed", a)
		case inBuf && string(v) != acked[a]:
			t.Errorf("%v is buffered with another value", a)
		case n >= k && !inBuf:
			t.Errorf("survivor %v left the buffer", a)
		case n < k && inBuf:
			reattached++
		case n < k && inIndex:
			indexed++
		case n < k:
			t.Errorf("victim %v is neither indexed nor back in the buffer", a)
		}
	}
	if nindexed := len(s.indexedLocked()); s.buffered+nindexed != len(all) || len(s.table) != len(all) || s.bufBytes != bytes {
		t.Errorf("%d buffered (%d bytes, counted %d) + %d indexed of %d acked, %d in the table",
			s.buffered, s.bufBytes, bytes, nindexed, len(all), len(s.table))
	}
	s.mu.Unlock()
	if reattached == 0 || indexed == 0 || reattached+indexed != k {
		t.Errorf("%d victims re-attached, %d indexed, of %d: the fault should cut the batch in two", reattached, indexed, k)
	}
	if t.Failed() {
		return
	}

	inj.Reset()
	if err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for a, want := range acked {
		got, ok, err := s.Get([]byte(a.key), a.w)
		if err != nil || !ok || string(got) != want {
			t.Fatalf("%v after the failed eviction: ok=%v err=%v match=%v", a, ok, err, string(got) == want)
		}
	}
}
