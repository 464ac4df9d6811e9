package ckpt

import (
	"bytes"
	"errors"
	"testing"

	"flowkv/internal/binio"
)

// livenessSeeds are liveness sections EncodeLiveness writes.
var livenessSeeds = [][]SegLive{
	nil,
	{{ID: 0, Entries: 1, Bits: []byte{1}}},
	{{ID: 3, Entries: 9, Bits: []byte{0x80, 0x01}}, {ID: 7, Entries: 300, Bits: []byte{0, 0, 0x10}}},
}

// FuzzDecodeLiveness feeds the liveness-file decoder arbitrary bytes: it
// must never panic, and whatever it accepts must be what EncodeLiveness
// writes for the segments it returns — so a bitmap longer than its
// segment, a bit set past its entries, or ids out of order never decode.
func FuzzDecodeLiveness(f *testing.F) {
	for _, segs := range livenessSeeds {
		f.Add(EncodeLiveness(segs))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		segs, err := DecodeLiveness(b)
		if err != nil {
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if again := EncodeLiveness(segs); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v, which encodes to %x, not %x", segs, again, b)
		}
		for i, sl := range segs {
			if i > 0 && sl.ID <= segs[i-1].ID {
				t.Fatalf("segment ids not ascending: %+v", segs)
			}
			if uint64(len(sl.Bits))*8 >= uint64(sl.Entries)+8 {
				t.Fatalf("segment %d: %d-byte bitmap for %d entries", sl.ID, len(sl.Bits), sl.Entries)
			}
			for ord := sl.Entries; ord < uint32(len(sl.Bits))*8; ord++ {
				if sl.Live(ord) {
					t.Fatalf("segment %d: bit %d set past its %d entries", sl.ID, ord, sl.Entries)
				}
			}
		}
	})
}

// TestDecodeLivenessRejects pins the decoder's refusals, each typed.
func TestDecodeLivenessRejects(t *testing.T) {
	frame := func(segs ...SegLive) []byte { return EncodeLiveness(segs) }
	whole := frame(SegLive{ID: 1, Entries: 4, Bits: []byte{0x0f}})
	for name, b := range map[string][]byte{
		"longer bitmap":      frame(SegLive{ID: 1, Entries: 8, Bits: []byte{1, 1}}),
		"bit past entries":   frame(SegLive{ID: 1, Entries: 4, Bits: []byte{0x10}}),
		"trailing zero byte": binio.AppendRecord(nil, []byte{1, 1, 16, 2, 1, 0}), // EncodeLiveness trims it
		"overlong varint":    binio.AppendRecord(nil, []byte{0x81, 0, 1, 1, 1, 1}),
		"ids descending":     frame(SegLive{ID: 2, Entries: 1, Bits: []byte{1}}, SegLive{ID: 1, Entries: 1, Bits: []byte{1}}),
		"ids repeated":       frame(SegLive{ID: 2, Entries: 1, Bits: []byte{1}}, SegLive{ID: 2, Entries: 1, Bits: []byte{1}}),
		"trailing frame":     append(whole, whole...),
		"zeroed":             make([]byte, len(whole)),
		"torn":               whole[:len(whole)-1],
		"empty":              nil,
	} {
		if segs, err := DecodeLiveness(b); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("%s: %+v, %v; want a corrupt-record error", name, segs, err)
		}
	}
	if segs, err := DecodeLiveness(whole); err != nil || len(segs) != 1 || !segs[0].Live(3) || segs[0].Live(4) {
		t.Fatalf("DecodeLiveness(%x) = %+v, %v", whole, segs, err)
	}
}
