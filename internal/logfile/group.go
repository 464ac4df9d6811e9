package logfile

import (
	"errors"
	"sort"
	"sync"
)

// The helpers below run one operation over "this instance's live logs":
// one per live window (AAR) or every log of every segment (Segments, the
// RMW and AUR logs); the split sync, poison probe, recovery and scrub are
// the same loops whichever it is.

// SplitSync fsyncs the log cur currently returns while mu — the owning
// instance's I/O lock, which guards the log and whatever cur reads — is
// released, so reads and later flushes overlap the fsync instead of
// queueing behind it. cur is called with mu held. A nil log means there
// is nothing left to make durable (the log was consumed, possibly while
// its fsync was in flight) and the sync trivially succeeds. A log
// swapped mid-fsync or reopened by recovery invalidates the outcome — an fsync of the old descriptor says
// nothing about the data's new home — and the sync is redone against
// current state; swaps copy all live state, so the retry converges. The
// caller keeps at most one SplitSync in flight per log.
func SplitSync(mu sync.Locker, cur func() *Log) error {
	for {
		mu.Lock()
		lg := cur()
		if lg == nil {
			mu.Unlock()
			return nil
		}
		tok, commit, err := lg.BeginSync()
		mu.Unlock()
		if err != nil {
			return err
		}
		serr := commit()
		mu.Lock()
		now := cur()
		if now == lg {
			err = lg.FinishSync(tok, serr)
		}
		mu.Unlock()
		switch {
		case now == nil:
			// Dropped mid-fsync: abandon the token (commit touches no
			// mutable log state, so this is legal).
			return nil
		case now != lg || errors.Is(err, ErrSyncSuperseded):
			continue
		}
		return err
	}
}

// FirstPoisoned returns the first poisoning error among logs, or nil
// when every log is healthy. The caller holds the logs' I/O lock.
func FirstPoisoned(logs []*Log) error {
	for _, l := range logs {
		if err := l.Poisoned(); err != nil {
			return err
		}
	}
	return nil
}

// RecoverAll reopens every poisoned log among logs at its durable
// offset, rewriting the retained unsynced tail (see ReopenAtDurable), so
// the write path works again after the underlying fault has cleared.
// Every log is attempted; the first failure is returned. The caller
// holds the logs' I/O lock.
func RecoverAll(logs []*Log) error {
	var first error
	for _, l := range logs {
		if l.Poisoned() == nil {
			continue
		}
		if err := l.ReopenAtDurable(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScrubAll scrubs logs in order (see Log.Scrub), stopping at the first
// unrepairable corruption. The caller holds the logs' I/O lock.
func ScrubAll(logs []*Log) (ScrubSummary, error) {
	var sum ScrubSummary
	for _, l := range logs {
		r, err := l.Scrub()
		sum.Add(r)
		if err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// Candidate is one segment of a segmented log that a cleaning pass may
// take: its id (creation order), its size and how much of that is live.
type Candidate struct {
	ID         uint32
	Size, Live int64
}

// PickVictims chooses what a cleaning pass cleans, the policy the RMW and
// AUR stores share: of cands, those with the lowest live share first —
// Live/Size ascending, compared by cross-multiplication, ties oldest first
// — until dropping their dead bytes brings the whole log, total bytes of
// which live are live, back under msa: total ≤ msa·live. It sorts cands and
// returns the prefix to clean.
func PickVictims(cands []Candidate, total, live int64, msa float64) []Candidate {
	sort.Slice(cands, func(i, j int) bool {
		l, r := cands[i].Live*cands[j].Size, cands[j].Live*cands[i].Size
		if l != r {
			return l < r
		}
		return cands[i].ID < cands[j].ID
	})
	n := 0
	for ; n < len(cands) && float64(total) > msa*float64(live); n++ {
		total -= cands[n].Size - cands[n].Live
	}
	return cands[:n]
}
