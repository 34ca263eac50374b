// Package prefetch implements the pre-fetching strategy of Section 5:
// while the user is still inspecting the current viewport, precompute an
// upper bound on the marginal representative-score increase of every
// object that could participate in the next navigation operation
// (Lemmas 5.1, 5.2 and 5.3 for zoom-in, zoom-out and panning). The
// bounds seed the greedy algorithm's heap in O(1) per object, removing
// its initialization bottleneck — the source of the paper's ~2 orders of
// magnitude speedup (Figure 13).
//
// All bounds are on the *unnormalized* marginal gain Σ ω(o')·Sim(o, o')
// used inside core.Selector, so they can be passed directly as
// Selector.InitialGains.
//
// The O(|envelope|²) bound computations run on the shared worker pool
// of internal/parallel — the same engine that powers the greedy core —
// one envelope row per worker task. Every function takes the pool size
// (0 = all CPUs, 1 = serial) and a context: prefetch passes are exactly
// the work a session abandons when the user navigates mid-computation,
// so cancellation is checked before every bound row and a cancelled
// pass returns ctx.Err() with its partial output discarded.
package prefetch

import (
	"context"
	"sort"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/grid"
	"geosel/internal/invariant"
	"geosel/internal/parallel"
	"geosel/internal/sim"
)

// PairwiseBounds returns, for every position in envelopePos, the sum
// Σ_{o' ∈ envelope} ω(o')·Sim(o, o') — a valid upper bound on o's
// marginal gain in any region whose objects are a subset of the
// envelope. This is Lemma 5.1 with the envelope = current region Op
// (zoom-in) and Lemma 5.2 with the envelope = union of all possible
// zoom-out regions OA. Cost: O(|envelope|²) metric calls and
// O(|envelope|) memory, with no term in the collection size, paid while
// the user is idle; rows are computed on workers goroutines (0 = all
// CPUs, 1 = serial). A cancelled ctx aborts between rows and returns
// ctx.Err().
func PairwiseBounds(ctx context.Context, col *geodata.Collection, envelopePos []int, m sim.Metric, workers int) (map[int]float64, error) {
	// The pass works on the envelope's own objects, indexed locally:
	// its allocations and kernel columns are O(|envelope|), independent
	// of the collection size. Local index j stands for envelopePos[j],
	// so every row adds the same terms in the same order as a kernel
	// over the whole collection would.
	env := col.Subset(envelopePos)
	sums := make([]float64, len(env))
	// One kernel compilation per pass (bitwise-identical to m.Sim by
	// the CompileKernel contract) instead of one interface dispatch per
	// pair — the same treatment the greedy core gives its hot loops.
	kern, _ := sim.CompileKernel(m, env)
	pool := parallel.New(workers)
	defer pool.Close()
	pruned, err := pairwiseBoundsPruned(ctx, env, m, kern, pool, sums)
	if err != nil {
		return nil, err
	}
	if !pruned {
		err := pool.Run(ctx, len(env), func(i int) { //geolint:hotpath
			var sum float64
			for j := range env {
				sum += env[j].Weight * kern(i, j)
			}
			sums[i] = sum
		})
		if err != nil {
			return nil, err
		}
	}
	if invariant.Enabled {
		assertEnvelopeBounds(env, m, sums, "prefetch: pairwise envelope bound")
	}
	out := make(map[int]float64, len(envelopePos))
	for i, p := range envelopePos {
		out[p] = sums[i]
	}
	return out, nil
}

// pruneCutoff is the envelope size below which the pruned bound rows
// are not worth a grid build; mirrors the greedy core's serial cutoff.
const pruneCutoff = 512

// pairwiseBoundsPruned computes the Lemma 5.1/5.2 rows over support
// neighborhoods instead of the whole envelope when the metric certifies
// an exact radius (eps truncation is never applied here: a truncated
// envelope sum could fall below the exact in-region gain and break the
// bound-domination contract of Lemmas 5.1–5.3). Each row's neighbor
// list is sorted by envelope position, so the pruned sum adds the same
// nonzero terms in the same order as the dense row — skipped terms are
// exactly zero — and the bounds come out bitwise identical. Reports
// whether it filled sums; false means the caller must run the dense
// rows (unbounded metric or tiny envelope).
func pairwiseBoundsPruned(ctx context.Context, env []geodata.Object, m sim.Metric, kern sim.Kernel, pool *parallel.Pool, sums []float64) (bool, error) {
	if len(env) < pruneCutoff {
		return false, nil
	}
	r, exact, ok := sim.SupportRadius(m, 0)
	if !ok || !exact {
		return false, nil
	}
	bounds := geo.Rect{Min: env[0].Loc, Max: env[0].Loc}
	for i := 1; i < len(env); i++ {
		bounds = bounds.Union(geo.Rect{Min: env[i].Loc, Max: env[i].Loc})
	}
	if r >= bounds.Min.Dist(bounds.Max) {
		return false, nil // the radius spans the envelope: nothing to prune
	}
	g, err := grid.New(bounds, r)
	if err != nil {
		return false, nil
	}
	// Keyed by envelope index, so rows can be replayed in the dense
	// iteration order.
	for k := range env {
		g.Insert(k, env[k].Loc)
	}
	runErr := pool.Run(ctx, len(env), func(i int) { //geolint:hotpath
		ks := g.Neighbors(env[i].Loc, r)
		sort.Ints(ks)
		var sum float64
		for _, k := range ks {
			sum += env[k].Weight * kern(i, k)
		}
		sums[i] = sum
	})
	if runErr != nil {
		return false, runErr
	}
	return true, nil
}

// assertEnvelopeBounds checks, under the geoselcheck tag, that every
// envelope bound is a plausible Lemma 5.1–5.3 sum: non-negative (the
// metric maps into [0, 1] and weights are non-negative) and at least the
// object's own weighted self-similarity term, which every envelope sum
// contains because the object belongs to its own envelope.
func assertEnvelopeBounds(env []geodata.Object, m sim.Metric, sums []float64, what string) {
	for i := range env {
		o := &env[i]
		invariant.Assertf(sums[i] >= 0, "%s: negative bound %v for envelope object %d", what, sums[i], i)
		invariant.UpperBound(o.Weight*m.Sim(o, o), sums[i], what+" (self term)")
	}
}

// ZoomInBounds precomputes upper bounds for all objects of the current
// region (any zoom-in target is contained in it), per Lemma 5.1. The
// view is any pinned geodata.View — a static store or one livestore
// snapshot; bounds are only valid against the exact view they were
// computed from (the session discards them on a version change).
func ZoomInBounds(ctx context.Context, view geodata.View, region geo.Rect, m sim.Metric, workers int) (map[int]float64, error) {
	return PairwiseBounds(ctx, view.Collection(), view.Region(region), m, workers)
}

// ZoomOutBounds precomputes upper bounds for all objects of the
// zoom-out envelope (the union of all possible zoom-out regions up to
// maxScale× the current side length), per Lemma 5.2.
func ZoomOutBounds(ctx context.Context, view geodata.View, vp geo.Viewport, maxScale float64, m sim.Metric, workers int) (map[int]float64, error) {
	env := vp.ZoomOutEnvelope(maxScale)
	return PairwiseBounds(ctx, view.Collection(), view.Region(env), m, workers)
}

// PanBounds precomputes upper bounds for all objects of the panning
// envelope rA (3× the viewport on each axis), per Lemma 5.3: for each
// object o the sum runs only over rA ∩ ro, where ro is the square
// centered at o with twice the old region's width — every possible
// panned region containing o lies inside that intersection. Each worker
// owns one envelope object: it performs the per-object window query
// (views are immutable, so their region search is safe to share) and
// accumulates that object's bound.
func PanBounds(ctx context.Context, view geodata.View, vp geo.Viewport, m sim.Metric, workers int) (map[int]float64, error) {
	env := vp.PanEnvelope()
	envPos := view.Region(env)
	envObjs := view.Collection().Subset(envPos)
	local := newEnvIndex(envPos)
	w := vp.Region.Width()
	h := vp.Region.Height()
	// An exact support radius shrinks each per-object window: objects
	// beyond it contribute exactly zero to the Lemma 5.3 sum, so
	// clipping ro to the radius square changes only which zero terms
	// the R-tree hands back. The bound stays a valid upper bound (eps
	// truncation is deliberately never applied to prefetch rows).
	rw, rh := w, h
	if r, exact, ok := sim.SupportRadius(m, 0); ok && exact {
		if r < rw {
			rw = r
		}
		if r < rh {
			rh = r
		}
	}
	sums := make([]float64, len(envObjs))
	kern, _ := sim.CompileKernel(m, envObjs)
	pool := parallel.New(workers)
	defer pool.Close()
	err := pool.Run(ctx, len(envObjs), func(i int) { //geolint:hotpath
		o := &envObjs[i]
		ro := geo.Rect{
			Min: geo.Point{X: o.Loc.X - rw, Y: o.Loc.Y - rh},
			Max: geo.Point{X: o.Loc.X + rw, Y: o.Loc.Y + rh},
		}
		window, ok := env.Intersect(ro)
		if !ok {
			sums[i] = 0
			return
		}
		// The window lies inside the envelope, so every hit is an
		// envelope object; summing in hit order keeps the terms and
		// their order of the whole-collection formulation.
		var sum float64
		for _, q := range view.Region(window) {
			j := local.of(q)
			sum += envObjs[j].Weight * kern(i, j)
		}
		sums[i] = sum
	})
	if err != nil {
		return nil, err
	}
	if invariant.Enabled {
		assertEnvelopeBounds(envObjs, m, sums, "prefetch: pan envelope bound")
	}
	out := make(map[int]float64, len(envPos))
	for i, p := range envPos {
		out[p] = sums[i]
	}
	return out, nil
}

// envIndex maps the collection positions of an envelope to envelope
// indices by binary search over the sorted positions: O(|envelope|)
// memory, where a position-indexed table would cost O(N).
type envIndex struct {
	sorted []int // envelope positions, ascending
	local  []int // local[k] is the envelope index of sorted[k]
}

func newEnvIndex(envPos []int) envIndex {
	local := make([]int, len(envPos))
	for i := range local {
		local[i] = i
	}
	sort.Slice(local, func(a, b int) bool { return envPos[local[a]] < envPos[local[b]] })
	sorted := make([]int, len(envPos))
	for k, i := range local {
		sorted[k] = envPos[i]
	}
	return envIndex{sorted: sorted, local: local}
}

// of returns the envelope index of collection position p, which must
// belong to the envelope.
func (x envIndex) of(p int) int {
	k := sort.SearchInts(x.sorted, p)
	if invariant.Enabled {
		invariant.Assertf(k < len(x.sorted) && x.sorted[k] == p, "prefetch: position %d outside the envelope", p)
	}
	return x.local[k]
}
