// Package bench is flowkvbench: four NEXMark state workloads driven
// through the real query pipelines, measured end to end and, in a
// separate traced run, layer by layer from outside the program under
// test. See README.md for the metric and workload definitions.
package bench

import (
	"fmt"

	"flowkv/internal/nexmark"
	"flowkv/internal/spe"
)

// Block is one pre-generated run of NEXMark events already adapted to
// the tuples a query consumes. It is stored pointer-free (one byte arena
// plus fixed-size entries) so the garbage collector never scans it and a
// stream of any length can be replayed from it: replay r shifts every
// event time by r block spans, continuing the 1 ms inter-event cadence.
type Block struct {
	arena []byte
	ents  []blockEnt
	// spanMs is the event time one replay of the block covers.
	spanMs int64
}

type blockEnt struct {
	off        uint32
	klen, vlen uint16
	ts         int64
}

// NewBlock generates events NEXMark events from seed (1 ms apart) and
// adapts them to tuples. bidderKeys widens the cold-bidder key space
// (nexmark.GeneratorConfig.ExtraBidderKeys); 0 keeps the generator's.
func NewBlock(seed int64, events, bidderKeys int, adapt func(nexmark.Event, func(spe.Tuple))) *Block {
	b := &Block{spanMs: int64(events)}
	g := nexmark.NewGenerator(nexmark.GeneratorConfig{Events: events, InterEventMs: 1, Seed: seed, ExtraBidderKeys: bidderKeys})
	add := func(t spe.Tuple) {
		b.ents = append(b.ents, blockEnt{
			off: uint32(len(b.arena)), klen: uint16(len(t.Key)), vlen: uint16(len(t.Value)), ts: t.TS,
		})
		b.arena = append(b.arena, t.Key...)
		b.arena = append(b.arena, t.Value...)
	}
	for ev, ok := g.Next(); ok; ev, ok = g.Next() {
		adapt(ev, add)
	}
	return b
}

// Len returns the number of tuples in one replay of the block.
func (b *Block) Len() int { return len(b.ents) }

// tuple materializes entry i of replay rep. Key and Value alias the
// arena with their capacity clipped, so an append by the consumer cannot
// reach the neighbouring entry.
func (b *Block) tuple(i int, rep int64) spe.Tuple {
	e := b.ents[i]
	k := int(e.off) + int(e.klen)
	v := k + int(e.vlen)
	return spe.Tuple{
		Key:   b.arena[e.off:k:k],
		Value: b.arena[k:v:v],
		TS:    e.ts + rep*b.spanMs,
	}
}

// blockSource streams the first total tuples of the block's endless
// replay. It is both the fire-hose spe.Source of spe.Run (Emit) and the
// spe.SeekableSource of jobs and tenants; SeekTo is O(1). The optional
// pacer turns the closed loop into an open loop, and probe observes the
// stream from outside the program under test: commit gaps, recovery
// times, and how long the consumer kept the source waiting.
type blockSource struct {
	blk   *Block
	total int64
	pos   int64
	idx   int   // pos % blk.Len()
	rep   int64 // pos / blk.Len()

	pace  *pacer
	probe *sourceProbe
	// onSample, when set, runs at diskSamples evenly spaced points of
	// the stream, the last one at its end; onEOF runs once, when the
	// stream is first exhausted.
	onSample   func()
	nextSample int64
	onEOF      func()
	eof        bool
}

// diskSamples is how many times a closed-loop run measures its state
// directory's footprint.
const diskSamples = 64

func newBlockSource(blk *Block, total int64) *blockSource {
	return &blockSource{blk: blk, total: total, probe: &sourceProbe{}}
}

// Next implements spe.SeekableSource.
func (s *blockSource) Next() (spe.Tuple, bool) {
	s.probe.enter()
	if s.pos >= s.nextSample && s.onSample != nil {
		s.onSample()
		s.nextSample += max(s.total/diskSamples, 1)
	}
	if s.pos >= s.total {
		if !s.eof {
			s.eof = true
			if s.onEOF != nil {
				s.onEOF()
			}
		}
		return spe.Tuple{}, false
	}
	t := s.blk.tuple(s.idx, s.rep)
	if s.pace != nil {
		t.WallNS = s.pace.release()
	}
	s.pos++
	if s.idx++; s.idx == len(s.blk.ents) {
		s.idx, s.rep = 0, s.rep+1
	}
	s.probe.exit()
	return t, true
}

// Offset implements spe.SeekableSource.
func (s *blockSource) Offset() int64 { return s.pos }

// SeekTo implements spe.SeekableSource.
func (s *blockSource) SeekTo(off int64) error {
	if off < 0 || off > s.total {
		return fmt.Errorf("bench: seek %d out of range [0,%d]", off, s.total)
	}
	n := int64(len(s.blk.ents))
	s.pos, s.idx, s.rep = off, int(off%n), off/n
	s.probe.seeked()
	return nil
}

// Emit is the stream as a spe.Source.
func (s *blockSource) Emit(emit func(spe.Tuple)) {
	for t, ok := s.Next(); ok; t, ok = s.Next() {
		emit(t)
	}
}

var _ spe.SeekableSource = (*blockSource)(nil)
