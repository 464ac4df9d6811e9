package ckpt

import (
	"slices"
	"sort"
	"testing"
)

// cutOf runs a cut and returns what it would ship, sorted: "k" for an
// upsert, "-k" for a tombstone.
func cutOf(m *Marks[string]) (Captured[string], []string) {
	var recs []string
	c := m.Cut(func(k string, tomb bool) {
		if tomb {
			k = "-" + k
		}
		recs = append(recs, k)
	})
	sort.Strings(recs)
	return c, recs
}

func wantRecs(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("cut ships %v, want %v", got, want)
	}
}

func TestMarksBornAndDiedElided(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("a", false)
	m.Upsert("a", true) // rewritten while still fresh
	m.Remove("a")
	m.Upsert("b", false)
	_, recs := cutOf(m)
	wantRecs(t, recs, "b")
}

func TestMarksExistedAtCutKeepsTombstone(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("a", false)
	c, recs := cutOf(m)
	wantRecs(t, recs, "a")
	m.Commit(c, 7)
	if _, recs = cutOf(m); len(recs) != 0 || m.LastCut() != 7 {
		t.Fatalf("after commit: marks %v left, last cut %d", recs, m.LastCut())
	}
	// a is in checkpoint 7 now: consuming it must ship, and so must
	// consuming a rewrite of it.
	m.Remove("a")
	_, recs = cutOf(m)
	wantRecs(t, recs, "-a")
	m.Upsert("a", false) // not live, but the mark knows the parent may hold it
	m.Remove("a")
	_, recs = cutOf(m)
	wantRecs(t, recs, "-a")

	// Live at the last cut and untouched since: its first mark is born
	// non-fresh.
	m2 := NewMarks[string]()
	m2.Upsert("x", true)
	m2.Remove("x")
	_, recs = cutOf(m2)
	wantRecs(t, recs, "-x")
}

func TestMarksConsumedWhileCutInFlight(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("a", false) // put before the cut
	c, recs := cutOf(m)
	wantRecs(t, recs, "a")
	m.Remove("a")  // consumed while the cut is being written
	m.Commit(c, 1) // the checkpoint holding a commits afterwards
	_, recs = cutOf(m)
	wantRecs(t, recs, "-a")
}

func TestMarksFailedCommitReshipsAndNeverElides(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("live", true)
	m.Upsert("born", false)
	_, recs := cutOf(m) // this checkpoint never commits
	wantRecs(t, recs, "born", "live")
	_, recs = cutOf(m)
	wantRecs(t, recs, "born", "live") // re-shipped
	// born was captured by a cut that might have committed: consuming it
	// now ships a tombstone the parent does not need, never elides one
	// it does.
	m.Remove("born")
	m.Remove("live")
	_, recs = cutOf(m)
	wantRecs(t, recs, "-born", "-live")
	if m.LastCut() != 0 {
		t.Fatalf("last cut %d without a commit", m.LastCut())
	}
}

func TestMarksBaseCutClearsFreshToo(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("a", false)
	c := m.Cut(nil) // a base cut dumps live state, a included
	m.Remove("a")
	m.Commit(c, 3)
	_, recs := cutOf(m)
	wantRecs(t, recs, "-a")
}

func TestMarksCommitKeepsRedirtied(t *testing.T) {
	m := NewMarks[string]()
	m.Upsert("a", false)
	m.Upsert("b", false)
	c, _ := cutOf(m)
	m.Upsert("b", true) // re-dirtied mid-write
	m.Commit(c, 9)
	_, recs := cutOf(m)
	wantRecs(t, recs, "b")
	m.Restored(11)
	if m.LastCut() != 11 {
		t.Fatalf("last cut %d after restore, want 11", m.LastCut())
	}
}

// wantCounts checks Len and Tombstones against both the expected values
// and a recount of the marks themselves.
func wantCounts(t *testing.T, m *Marks[string], marks, tombs int) {
	t.Helper()
	recount := 0
	for _, mk := range m.m {
		if mk.tomb {
			recount++
		}
	}
	if m.Len() != marks || m.Tombstones() != tombs || recount != tombs || len(m.m) != marks {
		t.Fatalf("Len %d Tombstones %d (recount %d of %d marks), want %d and %d",
			m.Len(), m.Tombstones(), recount, len(m.m), marks, tombs)
	}
}

func TestMarksCountsStayExact(t *testing.T) {
	m := NewMarks[string]()
	wantCounts(t, m, 0, 0)
	m.Upsert("held", true) // the parent holds it
	wantCounts(t, m, 1, 0)
	m.Remove("held") // upsert -> tombstone
	wantCounts(t, m, 1, 1)
	m.Remove("held") // a tombstone stays one tombstone
	wantCounts(t, m, 1, 1)
	m.Upsert("born", false)
	m.Remove("born") // fresh: the mark is deleted, not turned
	wantCounts(t, m, 1, 1)
	m.Upsert("held", false) // tombstone -> upsert
	wantCounts(t, m, 1, 0)
	m.Remove("clean") // unmarked, so the parent may hold it
	wantCounts(t, m, 2, 1)

	// A cut whose commit never runs changes no count, and clearing the
	// fresh bits must not disturb them either.
	m.Upsert("born", false)
	_, recs := cutOf(m)
	wantRecs(t, recs, "-clean", "born", "held")
	wantCounts(t, m, 3, 1)
	m.Remove("born") // no longer fresh: a tombstone now
	wantCounts(t, m, 3, 2)

	// Commit retires what the cut captured, but born was re-dirtied (its
	// tombstone is newer than the captured upsert) and stays, counted.
	c, _ := cutOf(m)
	m.Remove("held")
	m.Upsert("born", false)
	m.Commit(c, 5)
	wantCounts(t, m, 2, 1)
	_, recs = cutOf(m)
	wantRecs(t, recs, "-held", "born")
}

func TestMarksBaseIsCheaperFlipsAtTombsEqualClean(t *testing.T) {
	m := NewMarks[string]()
	// Four live identities: two clean ones the parent holds, two dirty.
	m.Upsert("d1", true)
	m.Upsert("d2", true)
	const live = 4
	if m.BaseIsCheaper(live) {
		t.Fatal("no tombstones: a delta of 2 records beats a base of 4")
	}
	m.Remove("t1")
	m.Remove("t2") // tombs == clean == 2: delta 4 records, base 4
	if m.BaseIsCheaper(live) {
		t.Fatal("tombstones equal the clean identities: the delta is no larger and must be kept")
	}
	m.Remove("t3") // tombs 3 > clean 2: delta 5 records, base 4
	if !m.BaseIsCheaper(live) {
		t.Fatal("tombstones outnumber the clean identities: the base is smaller")
	}
	// A clean identity more tips it back.
	if m.BaseIsCheaper(live + 1) {
		t.Fatal("three tombstones against three clean identities: keep the delta")
	}
	// Every live identity dirty and one tombstone: the delta is a full
	// dump plus an obituary.
	all := NewMarks[string]()
	all.Upsert("a", true)
	all.Remove("gone")
	if !all.BaseIsCheaper(1) {
		t.Fatal("a full dump plus a tombstone must rebase")
	}
	// Nothing marked, nothing live: nothing to rebase.
	if NewMarks[string]().BaseIsCheaper(0) {
		t.Fatal("an empty tracker prefers a base")
	}
}
