// Package nexmark implements the NEXMark benchmark workload used by the
// paper's evaluation (§6): a stream of online-auction events — Person,
// Auction, Bid — produced by a deterministic generator with the Apache
// Beam generator's event mix (2% persons, 6% auctions, 92% bids, i.e.
// 1:3:46 out of every 50 events) and monotonically increasing event
// timestamps.
package nexmark

import (
	"fmt"
	"math/rand"

	"flowkv/internal/binio"
)

// EventKind discriminates the three NEXMark event types.
type EventKind byte

// Event kinds.
const (
	KindPerson EventKind = iota + 1
	KindAuction
	KindBid
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case KindPerson:
		return "person"
	case KindAuction:
		return "auction"
	case KindBid:
		return "bid"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Person is a new account registration.
type Person struct {
	// ID is the person's unique identifier.
	ID int64
	// Name and City are synthetic attributes.
	Name string
	City string
	// DateTime is the event time in milliseconds.
	DateTime int64
}

// Auction is a new auction listing.
type Auction struct {
	// ID is the auction's unique identifier.
	ID int64
	// Seller references the Person who opened the auction.
	Seller int64
	// Category is the item category.
	Category int64
	// InitialBid is the opening price.
	InitialBid int64
	// DateTime is the event time in milliseconds.
	DateTime int64
}

// Bid is one bid on an auction.
type Bid struct {
	// Auction references the Auction bid on.
	Auction int64
	// Bidder references the bidding Person.
	Bidder int64
	// Price is the bid price.
	Price int64
	// DateTime is the event time in milliseconds.
	DateTime int64
}

// Event is the union of the three event types; exactly one field is set
// according to Kind.
type Event struct {
	Kind    EventKind
	Person  *Person
	Auction *Auction
	Bid     *Bid
}

// Time returns the event's timestamp.
func (e Event) Time() int64 {
	switch e.Kind {
	case KindPerson:
		return e.Person.DateTime
	case KindAuction:
		return e.Auction.DateTime
	default:
		return e.Bid.DateTime
	}
}

// Encode serializes the event compactly (the paper reports ~16 B persons
// and auctions, ~84 B bids; ours are of the same order).
func (e Event) Encode() []byte {
	b := []byte{byte(e.Kind)}
	switch e.Kind {
	case KindPerson:
		p := e.Person
		b = binio.PutVarint(b, p.ID)
		b = binio.PutString(b, p.Name)
		b = binio.PutString(b, p.City)
		b = binio.PutVarint(b, p.DateTime)
	case KindAuction:
		a := e.Auction
		b = binio.PutVarint(b, a.ID)
		b = binio.PutVarint(b, a.Seller)
		b = binio.PutVarint(b, a.Category)
		b = binio.PutVarint(b, a.InitialBid)
		b = binio.PutVarint(b, a.DateTime)
	case KindBid:
		bid := e.Bid
		b = binio.PutVarint(b, bid.Auction)
		b = binio.PutVarint(b, bid.Bidder)
		b = binio.PutVarint(b, bid.Price)
		b = binio.PutVarint(b, bid.DateTime)
	}
	return b
}

// DecodeEvent parses an event serialized by Encode.
func DecodeEvent(b []byte) (Event, error) {
	if len(b) == 0 {
		return Event{}, binio.ErrShortBuffer
	}
	kind := EventKind(b[0])
	b = b[1:]
	readVarint := func() (int64, error) {
		v, n, err := binio.Varint(b)
		b = b[n:]
		return v, err
	}
	readString := func() (string, error) {
		s, n, err := binio.String(b)
		b = b[n:]
		return s, err
	}
	switch kind {
	case KindPerson:
		var p Person
		var err error
		if p.ID, err = readVarint(); err != nil {
			return Event{}, err
		}
		if p.Name, err = readString(); err != nil {
			return Event{}, err
		}
		if p.City, err = readString(); err != nil {
			return Event{}, err
		}
		if p.DateTime, err = readVarint(); err != nil {
			return Event{}, err
		}
		return Event{Kind: KindPerson, Person: &p}, nil
	case KindAuction:
		var a Auction
		var err error
		for _, dst := range []*int64{&a.ID, &a.Seller, &a.Category, &a.InitialBid, &a.DateTime} {
			if *dst, err = readVarint(); err != nil {
				return Event{}, err
			}
		}
		return Event{Kind: KindAuction, Auction: &a}, nil
	case KindBid:
		var bid Bid
		var err error
		for _, dst := range []*int64{&bid.Auction, &bid.Bidder, &bid.Price, &bid.DateTime} {
			if *dst, err = readVarint(); err != nil {
				return Event{}, err
			}
		}
		return Event{Kind: KindBid, Bid: &bid}, nil
	default:
		return Event{}, fmt.Errorf("nexmark: unknown event kind %d", kind)
	}
}

// Beam generator proportions: out of every 50 events, 1 person, 3
// auctions, 46 bids.
const (
	proportionTotal   = 50
	personProportion  = 1
	auctionProportion = 3
)

// hotBidderRatio is the share of bids (in percent) made by one of the
// 10 most recent persons.
const hotBidderRatio = 25

// GeneratorConfig parameterizes the deterministic event generator.
type GeneratorConfig struct {
	// Events is the total number of events to produce.
	Events int
	// InterEventMs is the event-time gap between consecutive events
	// (event rate = 1000/InterEventMs events per event-time second).
	// Default 1.
	InterEventMs int64
	// Seed makes runs reproducible. Default 1.
	Seed int64
	// HotAuctionRatio is the share of bids (in percent) that target one
	// of the 10 most recent auctions, the Beam generator's skew model.
	// Default 50.
	HotAuctionRatio int
	// ExtraBidderKeys widens the bidder key space by drawing cold
	// bidders from [0, persons*ExtraBidderKeys). Default 1.
	ExtraBidderKeys int
}

func (c *GeneratorConfig) fill() {
	if c.InterEventMs <= 0 {
		c.InterEventMs = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HotAuctionRatio <= 0 {
		c.HotAuctionRatio = 50
	}
	if c.ExtraBidderKeys <= 0 {
		c.ExtraBidderKeys = 1
	}
}

// Generator deterministically produces NEXMark events in timestamp order.
type Generator struct {
	cfg GeneratorConfig
	rng *rand.Rand
	i   int
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg GeneratorConfig) *Generator {
	cfg.fill()
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Remaining returns the number of events left to generate.
func (g *Generator) Remaining() int { return g.cfg.Events - g.i }

// Next produces the next event; ok is false when the configured number of
// events has been generated.
func (g *Generator) Next() (Event, bool) {
	if g.i >= g.cfg.Events {
		return Event{}, false
	}
	i := g.i
	g.i++
	ts := int64(i) * g.cfg.InterEventMs
	slot := i % proportionTotal
	epoch := int64(i / proportionTotal)
	switch {
	case slot < personProportion:
		id := epoch*personProportion + int64(slot)
		return Event{Kind: KindPerson, Person: &Person{
			ID:       id,
			Name:     fmt.Sprintf("person-%d", id),
			City:     cities[g.rng.Intn(len(cities))],
			DateTime: ts,
		}}, true
	case slot < personProportion+auctionProportion:
		id := epoch*auctionProportion + int64(slot-personProportion)
		seller := g.pickPerson(epoch)
		return Event{Kind: KindAuction, Auction: &Auction{
			ID:         id,
			Seller:     seller,
			Category:   int64(g.rng.Intn(5)),
			InitialBid: int64(1 + g.rng.Intn(100)),
			DateTime:   ts,
		}}, true
	default:
		return Event{Kind: KindBid, Bid: &Bid{
			Auction:  g.pickAuction(epoch),
			Bidder:   g.pickBidder(epoch),
			Price:    int64(100 + g.rng.Intn(10_000)),
			DateTime: ts,
		}}, true
	}
}

// Offset returns the number of events generated so far — the position
// SeekTo needs to reproduce the current read point.
func (g *Generator) Offset() int64 { return int64(g.i) }

// SeekTo repositions the generator so the next event produced is the
// off'th of the configured stream. The generator is deterministic, so
// seeking rewinds to the initial state and replays; the repositioned
// stream is identical to the original in either direction — which is
// what lets a resumed pipeline replay exactly the events that followed
// its last committed checkpoint.
func (g *Generator) SeekTo(off int64) error {
	if off < 0 || off > int64(g.cfg.Events) {
		return fmt.Errorf("nexmark: seek %d out of range [0,%d]", off, g.cfg.Events)
	}
	g.rng = rand.New(rand.NewSource(g.cfg.Seed))
	g.i = 0
	for int64(g.i) < off {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	return nil
}

// All drains the generator into a slice.
func (g *Generator) All() []Event {
	out := make([]Event, 0, g.Remaining())
	for {
		ev, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func (g *Generator) pickPerson(epoch int64) int64 {
	max := epoch*personProportion + 1
	return g.rng.Int63n(max)
}

func (g *Generator) pickAuction(epoch int64) int64 {
	max := epoch*auctionProportion + 1
	if g.rng.Intn(100) < g.cfg.HotAuctionRatio {
		// One of the ~10 most recent auctions.
		lo := max - 10
		if lo < 0 {
			lo = 0
		}
		return lo + g.rng.Int63n(max-lo)
	}
	return g.rng.Int63n(max)
}

func (g *Generator) pickBidder(epoch int64) int64 {
	max := epoch*personProportion + 1
	if g.rng.Intn(100) < hotBidderRatio {
		lo := max - 10
		if lo < 0 {
			lo = 0
		}
		return lo + g.rng.Int63n(max-lo)
	}
	return g.rng.Int63n(max * int64(g.cfg.ExtraBidderKeys))
}

var cities = []string{
	"Seoul", "Rome", "Boston", "Tokyo", "Berlin", "Lagos", "Lima", "Oslo",
}
