package tilecache

import (
	"math"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// FuzzDecodeTile feeds the GST1 decoder arbitrary bytes, which must
// decode or fail with an error but never panic, and checks that a tile
// entry built from the same fuzz input round-trips through appendWire
// and DecodeTile: positions, gains (at the wire's float32 precision),
// score and object count all come back.
func FuzzDecodeTile(f *testing.F) {
	objs := make([]geodata.Object, 7)
	for i := range objs {
		objs[i] = geodata.Object{ID: 100 - 3*i, Loc: geo.Pt(float64(i)/7, 1-float64(i)/7), Weight: float64(i+1) / 8}
	}
	seed := &entry{
		key:   Key{T: Tile{Z: 2, X: 1, Y: 3}, Band: 1, K: 3},
		born:  4,
		pos:   []int32{0, 5, 2},
		gains: []float64{1.5, 0.25, 0.125},
		score: 0.75,
		count: 40,
	}
	f.Add(appendWire(nil, seed, objs), 0.75, int32(40), int32(2), int32(1), int32(3), int32(1), int32(3), uint64(4))
	f.Add([]byte("GST1"), 0.0, int32(0), int32(0), int32(0), int32(0), int32(-1), int32(0), uint64(0))
	f.Add([]byte("GST1\x01\x00\x00\x00\x05\x00\x03\xff\xff\xff\x7f"), math.Inf(1), int32(-5), int32(30), int32(7), int32(9), int32(6), int32(100), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, data []byte, score float64, count, z, x, y, band, k int32, born uint64) {
		if d, err := DecodeTile(data); err == nil && len(d.Members)*minMemberBytes > len(data) {
			t.Fatalf("decoded %d members from %d bytes", len(d.Members), len(data))
		}

		e := &entry{
			key:   Key{T: Tile{Z: z, X: x, Y: y}, Band: band, K: k},
			born:  born,
			score: score,
			count: count,
		}
		for i, b := range data {
			e.pos = append(e.pos, int32(int(b)%len(objs)))
			e.gains = append(e.gains, float64(b)/float64(i+1))
		}
		d, err := DecodeTile(appendWire(nil, e, objs))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if d.Tile != e.key.T || d.Band != band || d.K != k || d.Version != born {
			t.Fatalf("header %+v does not match key %+v born %d", d, e.key, born)
		}
		if math.Float64bits(d.Score) != math.Float64bits(score) || d.TileObjects != count {
			t.Fatalf("score %v count %d, want %v and %d", d.Score, d.TileObjects, score, count)
		}
		if len(d.Members) != len(e.pos) {
			t.Fatalf("%d members, want %d", len(d.Members), len(e.pos))
		}
		for i, m := range d.Members {
			o := &objs[e.pos[i]]
			if m.Pos != e.pos[i] || m.ID != o.ID || m.Gain != float32(e.gains[i]) {
				t.Fatalf("member %d = %+v, want position %d id %d gain %v", i, m, e.pos[i], o.ID, float32(e.gains[i]))
			}
		}
	})
}
