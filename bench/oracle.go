package bench

import (
	"fmt"
	"sort"

	"flowkv/internal/binio"
)

// The oracle computes, straight from the input tuples and without the
// SPE or any store, the result set each query must produce. Inputs
// arrive in timestamp order, so a fixed window closes when a tuple of
// the next window arrives and a session closes when its key's next
// tuple is a gap or more later; end of stream closes everything. The
// value encodings are the queries' own (a varint price or count).

// model names the aggregate a workload's query computes.
type model string

const (
	modelFixedMax      model = "fixed-max"      // Q7: highest price per key per tumbling window
	modelSessionCount  model = "session-count"  // Q11: tuples per key per session
	modelSessionMedian model = "session-median" // Q11-Median: median price per key per session
)

// expect returns the digest of the results over the first cut tuples of
// src's stream, for each cut (ascending), in one pass.
func expect(m model, windowMs int64, blk *Block, cuts []int64) ([]Digest, error) {
	if !sort.SliceIsSorted(cuts, func(i, j int) bool { return cuts[i] < cuts[j] }) {
		return nil, fmt.Errorf("bench: oracle cuts not ascending: %v", cuts)
	}
	var o interface {
		add(key []byte, price, ts int64)
		// flushed returns the digest as if the stream ended here, leaving
		// the open state untouched.
		flushed() Digest
	}
	switch m {
	case modelFixedMax:
		o = &fixedMaxOracle{size: windowMs, max: map[string]int64{}}
	case modelSessionCount, modelSessionMedian:
		o = &sessionOracle{gap: windowMs, median: m == modelSessionMedian, open: map[string]*sessionState{}}
	default:
		return nil, fmt.Errorf("bench: unknown oracle model %q", m)
	}
	out := make([]Digest, 0, len(cuts))
	src := newBlockSource(blk, cuts[len(cuts)-1])
	for _, cut := range cuts {
		for src.pos < cut {
			t, _ := src.Next()
			price, _, err := binio.Varint(t.Value)
			if err != nil {
				return nil, fmt.Errorf("bench: oracle: tuple %d: %w", src.pos-1, err)
			}
			o.add(t.Key, price, t.TS)
		}
		out = append(out, o.flushed())
	}
	return out, nil
}

type fixedMaxOracle struct {
	size  int64
	start int64 // open window start
	max   map[string]int64
	done  Digest
}

func (o *fixedMaxOracle) add(key []byte, price, ts int64) {
	if start := ts - ts%o.size; start != o.start {
		o.done = o.flushed()
		clear(o.max)
		o.start = start
	}
	if cur, ok := o.max[string(key)]; !ok || price > cur {
		o.max[string(key)] = price
	}
}

func (o *fixedMaxOracle) flushed() Digest {
	d := o.done
	for k, p := range o.max {
		d.add([]byte(k), o.start+o.size-1, binio.PutVarint(nil, p))
	}
	return d
}

type sessionState struct {
	last   int64
	count  int64
	prices []int64
}

type sessionOracle struct {
	gap    int64
	median bool
	open   map[string]*sessionState
	done   Digest
}

func (o *sessionOracle) add(key []byte, price, ts int64) {
	s := o.open[string(key)]
	if s == nil {
		s = &sessionState{}
		o.open[string(key)] = s
	} else if ts-s.last >= o.gap {
		o.emit(&o.done, key, s)
		s.count, s.prices = 0, s.prices[:0]
	}
	s.last = ts
	s.count++
	if o.median {
		s.prices = append(s.prices, price)
	}
}

func (o *sessionOracle) emit(d *Digest, key []byte, s *sessionState) {
	v := s.count
	if o.median {
		p := append([]int64(nil), s.prices...)
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		n := len(p)
		v = p[n/2]
		if n%2 == 0 {
			v = (p[n/2-1] + p[n/2]) / 2
		}
	}
	d.add(key, s.last+o.gap-1, binio.PutVarint(nil, v))
}

func (o *sessionOracle) flushed() Digest {
	d := o.done
	for k, s := range o.open {
		o.emit(&d, []byte(k), s)
	}
	return d
}
