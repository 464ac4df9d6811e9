package window

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// selItem carries what the two stores order their buffers by.
type selItem struct {
	key    string
	w      Window
	ett    int64
	hasETT bool
}

// endsLater is the RMW store's eviction order: the window end, then its
// start, then the key.
func endsLater(a, b selItem) bool {
	if a.w.End != b.w.End {
		return a.w.End > b.w.End
	}
	if a.w.Start != b.w.Start {
		return a.w.Start > b.w.Start
	}
	return a.key > b.key
}

// triggersLater is the AUR store's: an item without an estimated trigger
// time after every item with one, then the estimate, then the identity.
func triggersLater(a, b selItem) bool {
	switch {
	case a.hasETT != b.hasETT:
		return !a.hasETT
	case a.hasETT && a.ett != b.ett:
		return a.ett > b.ett
	case a.key != b.key:
		return a.key > b.key
	}
	return b.w.Before(a.w)
}

// TestSelectLastMatchesSort checks the quickselect against a full sort on
// slices of every small size, under both stores' orders, on the inputs
// that hurt a careless pivot: sorted, reversed, one window (or one
// estimate) for every item, few distinct values, items with no estimate.
func TestSelectLastMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	gens := map[string]func(i, n int) selItem{
		"random": func(i, n int) selItem {
			e := rng.Int63n(50)
			return selItem{key: key(i), w: Window{Start: e - rng.Int63n(3), End: e}, ett: rng.Int63n(50), hasETT: true}
		},
		"ascending": func(i, n int) selItem {
			return selItem{key: "k", w: Window{Start: int64(i), End: int64(i) + 10}, ett: int64(i), hasETT: true}
		},
		"descending": func(i, n int) selItem {
			return selItem{key: "k", w: Window{Start: int64(n - i), End: int64(n-i) + 10}, ett: int64(n - i), hasETT: true}
		},
		"one-value": func(i, n int) selItem {
			return selItem{key: key((i * 7919) % n), w: Window{End: 100}, ett: 100, hasETT: true}
		},
		"two-values": func(i, n int) selItem {
			return selItem{key: key(i), w: Window{End: int64(i % 2)}, ett: int64(i % 2), hasETT: true}
		},
		"some-without-estimate": func(i, n int) selItem {
			return selItem{key: key(i), w: Window{Start: int64(i % 5), End: int64(i%5) + 10}, ett: rng.Int63n(4), hasETT: i%3 != 0}
		},
		"none-with-estimate": func(i, n int) selItem {
			return selItem{key: key((i * 31) % n), w: Window{Start: int64(i % 3), End: 50}}
		},
	}
	orders := map[string]func(a, b selItem) bool{"endsLater": endsLater, "triggersLater": triggersLater}
	for name, gen := range gens {
		for n := 0; n <= 70; n++ {
			items := make([]selItem, n)
			for i := range items {
				items[i] = gen(i, n)
			}
			for oname, later := range orders {
				want := append([]selItem(nil), items...)
				sort.Slice(want, func(i, j int) bool { return later(want[i], want[j]) })
				for _, k := range []int{0, 1, (n + 3) / 4, n / 2, n - 1, n} {
					if k < 0 || k > n {
						continue
					}
					got := append([]selItem(nil), items...)
					SelectLast(got, k, later)
					top := append([]selItem(nil), got[:k]...)
					sort.Slice(top, func(i, j int) bool { return later(top[i], top[j]) })
					for i := range top {
						if top[i] != want[i] {
							t.Fatalf("%s/%s n=%d k=%d: selected %v, want %v", name, oname, n, k, top, want[:k])
						}
					}
					rest := append([]selItem(nil), got[k:]...)
					sort.Slice(rest, func(i, j int) bool { return later(rest[i], rest[j]) })
					for i := range rest {
						if rest[i] != want[k+i] {
							t.Fatalf("%s/%s n=%d k=%d: selection lost or duplicated an item", name, oname, n, k)
						}
					}
				}
			}
		}
	}
}
