package logfile

import (
	"slices"
	"testing"
)

// TestPickVictims pins the cleaning policy the RMW and AUR stores share:
// lowest live share first, compared exactly, ties to the older segment,
// and no more victims than it takes to bring the log back under MSA.
func TestPickVictims(t *testing.T) {
	ids := func(cs []Candidate) []uint32 {
		out := make([]uint32, len(cs))
		for i, c := range cs {
			out[i] = c.ID
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		cands       []Candidate
		total, live int64
		msa         float64
		want        []uint32
	}{
		{"under MSA already", []Candidate{{1, 100, 10}, {2, 100, 90}}, 300, 200, 1.5, nil},
		{"exactly at MSA", []Candidate{{1, 100, 0}}, 150, 100, 1.5, nil},
		{"emptiest first, and only as many as needed", []Candidate{{1, 100, 60}, {2, 100, 10}, {3, 100, 30}}, 300, 100, 1.5, []uint32{2, 3}},
		{"shares compared, not dead bytes", []Candidate{{1, 1000, 500}, {2, 100, 20}}, 1100, 520, 1.5, []uint32{2, 1}},
		{"equal shares go oldest first", []Candidate{{7, 100, 50}, {3, 200, 100}, {5, 50, 25}}, 350, 175, 1.2, []uint32{3, 5, 7}},
		{"cross-multiplication does not round", []Candidate{{1, 3_000_000_007, 1_000_000_002}, {2, 3_000_000_004, 1_000_000_001}}, 6_000_000_011, 2_000_000_003, 2.9, []uint32{2}},
		{"nothing live: everything goes", []Candidate{{2, 10, 0}, {1, 10, 0}}, 30, 0, 1.5, []uint32{1, 2}},
		{"candidates run out first", []Candidate{{1, 100, 99}}, 1000, 100, 1.5, []uint32{1}},
	} {
		got := ids(PickVictims(tc.cands, tc.total, tc.live, tc.msa))
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: victims %v, want %v", tc.name, got, tc.want)
		}
	}
}
