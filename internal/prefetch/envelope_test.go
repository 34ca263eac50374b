package prefetch

import (
	"context"
	"runtime"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// envelopeStores returns two stores whose objects inside keep are the
// same objects at the same positions: small holds base, large appends
// nine times as many objects again, all placed outside keep.
func envelopeStores(t *testing.T, base *geodata.Collection, keep geo.Rect) (small, large *geodata.Store) {
	t.Helper()
	n := len(base.Objects)
	extra, err := dataset.Generate(dataset.POISpec(20*n, 22))
	if err != nil {
		t.Fatal(err)
	}
	big := &geodata.Collection{Objects: append([]geodata.Object(nil), base.Objects...), Vocab: base.Vocab}
	for _, o := range extra.Objects {
		if len(big.Objects) == 10*n {
			break
		}
		if keep.Contains(o.Loc) {
			continue
		}
		o.ID = len(big.Objects)
		big.Objects = append(big.Objects, o)
	}
	if len(big.Objects) != 10*n {
		t.Fatalf("built %d objects, want %d", len(big.Objects), 10*n)
	}
	if small, err = geodata.NewStore(base); err != nil {
		t.Fatal(err)
	}
	if large, err = geodata.NewStore(big); err != nil {
		t.Fatal(err)
	}
	return small, large
}

// allocBytes reports the heap bytes one call of f allocates, as the
// minimum over a few calls so a stray background allocation cannot
// inflate it.
func allocBytes(f func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
	}
	return best
}

// Reference formulations of the three bound passes over the whole
// collection, through the metric interface (bitwise equal to any
// compiled kernel by the CompileKernel contract): the same terms in the
// same order as the envelope-local passes must add.

func refPairwise(objs []geodata.Object, envPos []int, m sim.Metric) map[int]float64 {
	out := make(map[int]float64, len(envPos))
	for _, p := range envPos {
		var sum float64
		for _, q := range envPos {
			sum += objs[q].Weight * m.Sim(&objs[p], &objs[q])
		}
		out[p] = sum
	}
	return out
}

func refPan(view geodata.View, vp geo.Viewport, m sim.Metric) map[int]float64 {
	objs := view.Collection().Objects
	env := vp.PanEnvelope()
	w, h := vp.Region.Width(), vp.Region.Height()
	out := make(map[int]float64)
	for _, p := range view.Region(env) {
		o := &objs[p]
		ro := geo.Rect{Min: geo.Pt(o.Loc.X-w, o.Loc.Y-h), Max: geo.Pt(o.Loc.X+w, o.Loc.Y+h)}
		var sum float64
		if window, ok := env.Intersect(ro); ok {
			for _, q := range view.Region(window) {
				sum += objs[q].Weight * m.Sim(o, &objs[q])
			}
		}
		out[p] = sum
	}
	return out
}

func refTiledContrib(objs []geodata.Object, envPos []int, t *Tiled, m sim.Metric) [][]float64 {
	out := make([][]float64, len(envPos))
	for i, p := range envPos {
		out[i] = make([]float64, t.t*t.t)
		for _, q := range envPos {
			out[i][t.tileIndex(objs[q].Loc)] += objs[q].Weight * m.Sim(&objs[p], &objs[q])
		}
	}
	return out
}

func sameBounds(t *testing.T, what string, got, want map[int]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bounds, want %d", what, len(got), len(want))
	}
	for p, v := range want {
		if g, ok := got[p]; !ok || g != v {
			t.Fatalf("%s: bound for position %d is %v, want bitwise %v", what, p, g, v)
		}
	}
}

// TestBoundPassesScaleWithEnvelope pins the two properties of the
// envelope-local bound passes: for a fixed envelope, the bytes one
// PairwiseBounds, PanBounds or NewTiled pass allocates do not grow when
// the collection outside the envelope grows 10×, and every bound equals
// the whole-collection formulation bit for bit.
func TestBoundPassesScaleWithEnvelope(t *testing.T) {
	ctx := context.Background()
	// Center the viewport on a dataset object so it sits in a cluster.
	base, err := dataset.Generate(dataset.POISpec(5000, 21))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(base.Objects[0].Loc, 0.05)
	vp := geo.NewViewport(geo.WorldUnit, region)
	small, large := envelopeStores(t, base, vp.PanEnvelope())
	if n := len(small.Region(region)); n < 100 {
		t.Fatalf("viewport holds only %d objects", n)
	}

	for _, m := range []sim.Metric{sim.Cosine{}, sim.EuclideanProximity{MaxDist: 0.01}} {
		passes := []struct {
			name  string
			run   func(store *geodata.Store) (any, error)
			check func(store *geodata.Store, got any)
		}{{
			name: "PairwiseBounds",
			run: func(store *geodata.Store) (any, error) {
				return PairwiseBounds(ctx, store.Collection(), store.Region(region), m, 1)
			},
			check: func(store *geodata.Store, got any) {
				want := refPairwise(store.Collection().Objects, store.Region(region), m)
				sameBounds(t, "PairwiseBounds", got.(map[int]float64), want)
			},
		}, {
			name: "PanBounds",
			run: func(store *geodata.Store) (any, error) {
				return PanBounds(ctx, store, vp, m, 1)
			},
			check: func(store *geodata.Store, got any) {
				sameBounds(t, "PanBounds", got.(map[int]float64), refPan(store, vp, m))
			},
		}, {
			name: "NewTiled",
			run: func(store *geodata.Store) (any, error) {
				return NewTiled(ctx, store.Collection(), store.Region(region), region, 4, m, 1)
			},
			check: func(store *geodata.Store, got any) {
				tb := got.(*Tiled)
				want := refTiledContrib(store.Collection().Objects, tb.pos, tb, m)
				for i := range want {
					for k, v := range want[i] {
						if tb.contrib[i][k] != v {
							t.Fatalf("NewTiled: contribution of position %d to tile %d is %v, want bitwise %v",
								tb.pos[i], k, tb.contrib[i][k], v)
						}
					}
				}
			},
		}}
		for _, pass := range passes {
			var bytes [2]uint64
			for i, store := range []*geodata.Store{small, large} {
				var got any
				var err error
				bytes[i] = allocBytes(func() { got, err = pass.run(store) })
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				pass.check(store, got)
			}
			// A few KB of slack absorbs R-tree traversal differences;
			// an O(N) column would add hundreds of KB at 50k objects.
			if bytes[1] > bytes[0]+bytes[0]/10+8<<10 {
				t.Errorf("%s over %T: one pass allocates %d B at %d objects but %d B at %d objects",
					pass.name, m, bytes[0], small.Len(), bytes[1], large.Len())
			}
		}
	}
}
