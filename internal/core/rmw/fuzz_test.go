package rmw

import (
	"bytes"
	"errors"
	"testing"

	"flowkv/internal/binio"
)

// livenessSeeds are liveness files encodeLiveness writes.
var livenessSeeds = [][]segLive{
	nil,
	{{id: 0, entries: 1, bits: []byte{1}}},
	{{id: 3, entries: 9, bits: []byte{0x80, 0x01}}, {id: 7, entries: 300, bits: []byte{0, 0, 0x10}}},
}

// FuzzDecodeLiveness feeds the liveness-file decoder arbitrary bytes: it
// must never panic, and whatever it accepts must be what encodeLiveness
// writes for the segments it returns — so a bitmap longer than its
// segment, a bit set past its entries, or ids out of order never decode.
func FuzzDecodeLiveness(f *testing.F) {
	for _, segs := range livenessSeeds {
		f.Add(encodeLiveness(segs))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		segs, err := decodeLiveness(b)
		if err != nil {
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if again := encodeLiveness(segs); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v, which encodes to %x, not %x", segs, again, b)
		}
		for i, sl := range segs {
			if i > 0 && sl.id <= segs[i-1].id {
				t.Fatalf("segment ids not ascending: %+v", segs)
			}
			if uint64(len(sl.bits))*8 >= uint64(sl.entries)+8 {
				t.Fatalf("segment %d: %d-byte bitmap for %d entries", sl.id, len(sl.bits), sl.entries)
			}
			for ord := sl.entries; ord < uint32(len(sl.bits))*8; ord++ {
				if sl.live(ord) {
					t.Fatalf("segment %d: bit %d set past its %d entries", sl.id, ord, sl.entries)
				}
			}
		}
	})
}

// TestDecodeLivenessRejects pins the decoder's refusals, each typed.
func TestDecodeLivenessRejects(t *testing.T) {
	frame := func(segs ...segLive) []byte { return encodeLiveness(segs) }
	whole := frame(segLive{id: 1, entries: 4, bits: []byte{0x0f}})
	for name, b := range map[string][]byte{
		"longer bitmap":      frame(segLive{id: 1, entries: 8, bits: []byte{1, 1}}),
		"bit past entries":   frame(segLive{id: 1, entries: 4, bits: []byte{0x10}}),
		"trailing zero byte": binio.AppendRecord(nil, []byte{1, 1, 16, 2, 1, 0}), // encodeLiveness trims it
		"overlong varint":    binio.AppendRecord(nil, []byte{0x81, 0, 1, 1, 1, 1}),
		"ids descending":     frame(segLive{id: 2, entries: 1, bits: []byte{1}}, segLive{id: 1, entries: 1, bits: []byte{1}}),
		"ids repeated":       frame(segLive{id: 2, entries: 1, bits: []byte{1}}, segLive{id: 2, entries: 1, bits: []byte{1}}),
		"trailing frame":     append(whole, whole...),
		"zeroed":             make([]byte, len(whole)),
		"torn":               whole[:len(whole)-1],
		"empty":              nil,
	} {
		if segs, err := decodeLiveness(b); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("%s: %+v, %v; want a corrupt-record error", name, segs, err)
		}
	}
	if segs, err := decodeLiveness(whole); err != nil || len(segs) != 1 || !segs[0].live(3) || segs[0].live(4) {
		t.Fatalf("decodeLiveness(%x) = %+v, %v", whole, segs, err)
	}
}
