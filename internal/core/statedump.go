package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"flowkv/internal/window"
)

// StateEntry is one live unit of state surfaced by ForEachState: a key,
// its window, and either the appended values (AAR/AUR patterns) or the
// read-modify-write aggregate (RMW pattern).
type StateEntry struct {
	Key    []byte
	Window window.Window
	// Values holds appended state in append order (AAR/AUR).
	Values [][]byte
	// Agg holds the RMW aggregate; HasAgg distinguishes an aggregate
	// entry from appended-state entries.
	Agg    []byte
	HasAgg bool
	// MaxTS is the maximum event timestamp observed for the entry (AUR
	// Stat table; zero elsewhere). Re-appending with it re-seeds ETT
	// estimation in the receiving store.
	MaxTS int64
}

// ForEachState enumerates every live unit of state across all instances
// without consuming anything — the export side of job rescaling: a
// restored checkpoint is dumped entry by entry and re-routed into a new
// worker set by key hash. Entries are ordered within an instance
// ((key, window) for AUR/RMW, window-major for AAR); cross-instance
// order follows instance index.
func (s *Store) ForEachState(fn func(StateEntry) error) error {
	if err := s.guardRead(); err != nil {
		return err
	}
	// Only the view matching the store's pattern is populated; the other
	// two loops run zero times.
	for _, st := range s.aarView {
		for _, w := range st.Windows() {
			kvs, err := st.ReadWindowFiltered(w, nil)
			if err != nil {
				return fmt.Errorf("flowkv: dump window %v: %w", w, err)
			}
			for _, kv := range kvs {
				if err := fn(StateEntry{Key: kv.Key, Window: w, Values: kv.Values}); err != nil {
					return err
				}
			}
		}
	}
	for _, st := range s.aurView {
		err := st.ForEachLive(func(key []byte, w window.Window, values [][]byte, maxTS int64) error {
			return fn(StateEntry{Key: key, Window: w, Values: values, MaxTS: maxTS})
		})
		if err != nil {
			return err
		}
	}
	for _, st := range s.rmwView {
		err := st.ForEachLive(func(key []byte, w window.Window, agg []byte) error {
			return fn(StateEntry{Key: key, Window: w, Agg: agg, HasAgg: true})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Identity names one unit of AUR or RMW state: a key and the window it
// was stored under — for a session, its initial window (§4.2).
type Identity struct {
	Key    string
	Window window.Window
}

// CompareIdentities orders identities by key, then by window
// (window.Before): the order Identities lists them in.
func CompareIdentities(a, b Identity) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Window.Start, b.Window.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Window.End, b.Window.End)
}

// Identities lists every live identity across all instances, sorted by
// CompareIdentities. It walks the instances' in-memory tables and reads
// nothing from disk. AAR stores, which name state by window alone, return
// ErrWrongPattern.
func (s *Store) Identities() ([]Identity, error) {
	if s.pattern == PatternAAR {
		return nil, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, err
	}
	var ids []Identity
	add := func(key string, w window.Window) { ids = append(ids, Identity{key, w}) }
	for _, st := range s.aurView {
		if err := st.ForEachIdentity(add); err != nil {
			return nil, err
		}
	}
	for _, st := range s.rmwView {
		if err := st.ForEachIdentity(add); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(ids, CompareIdentities)
	return ids, nil
}

// ReadWindowOwned returns window w's state restricted to the keys the
// own predicate accepts (nil accepts every key), grouped by key, without
// consuming the window (AAR only): several readers can each take the key
// range they own, and the window is dropped wholesale (DropWindow)
// afterwards. It must not overlap a destructive GetWindow drain of the
// same window.
func (s *Store) ReadWindowOwned(w window.Window, own func(key []byte) bool) ([]KeyValues, error) {
	if s.pattern != PatternAAR {
		return nil, ErrWrongPattern
	}
	if err := s.guardRead(); err != nil {
		return nil, err
	}
	var (
		mu  sync.Mutex
		out []KeyValues
	)
	err := s.eachInstance(func(i int) error {
		part, err := s.aarView[i].ReadWindowFiltered(w, own)
		if err != nil {
			return err
		}
		if len(part) > 0 {
			mu.Lock()
			out = append(out, part...)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
