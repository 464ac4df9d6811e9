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
