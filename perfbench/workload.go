package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// opKind is the client-visible operation a request exercises.
type opKind int

const (
	opSelect  opKind = iota // POST /select
	opTile                  // GET /tiles/{z}/{x}/{y}
	opNav                   // POST /sessions/{id}/{start,zoomin,zoomout,pan}
	opIngest                // POST /ingest
	opSession               // POST /sessions, DELETE /sessions/{id}
	numOps
)

var opNames = [numOps]string{"select", "tile", "nav", "ingest", "session"}

func (o opKind) String() string { return opNames[o] }

// request is one scripted client request. Scripts are generated from
// the seed before the server starts; the server sees only the requests.
type request struct {
	op opKind
	// nav is start, zoomin, zoomout or pan for opNav, and create or
	// delete for opSession.
	nav string
	// region is the /select viewport, or the viewport a navigation
	// lands on (for a pan: the previous region moved by delta).
	region geo.Rect
	// prev is the region before a navigation; zero for start.
	prev  geo.Rect
	delta geo.Point
	tile  tilecache.Tile
	// cond sends If-None-Match with the ETag of the last full fetch of
	// the same tile, which must answer 304.
	cond bool
}

// params sizes a workload. Work per request is fixed by object counts
// rather than by side lengths, so every seed gives the server about the
// same work even though the generated map differs: a viewport is sized
// to hold a number of objects, and where a tile fill or a prefetch is
// the cost, by the pair work that costs.
type params struct {
	N         int     // generated POIs
	K         int     // objects per selection
	ThetaFrac float64 // θ as a fraction of the viewport side
	Clients   int     // closed-loop clients
	// Pace, when set, spaces a client's requests: client i sends its
	// n-th request at (n + i/Clients)·Pace after the phase starts, give
	// or take a jitter of Pace/8, or as soon as its previous reply
	// arrives if that is later. The offset keeps one user's background
	// prefetch out of the other's navigations; the idle time until the
	// next slot is think time.
	Pace time.Duration

	// browse: popular areas, each a viewport of AreaObjects objects
	// whose tiles carry about AreaWork object pairs; a session walk at
	// street level starts on a viewport whose prefetch envelope holds
	// WalkEnvelope objects.
	Areas        int
	AreaObjects  int
	AreaWork     float64
	WalkEnvelope int

	// explore: per user, Walks walks of the exploreWalk pattern after a
	// start on a viewport whose prefetch envelope holds WalkEnvelope
	// objects.
	Walks int

	// churn: HotBlocks hot viewports, each spanning a 2×2 block of
	// zoom-HotZoom tiles that hold about HotObjects objects and carry
	// about HotWork object pairs; after every EpochEvery reads an epoch
	// of EpochSize updates inside one of them, in turn.
	HotBlocks  int
	HotZoom    int
	HotObjects int
	HotWork    float64
	EpochEvery int
	EpochSize  int

	// ScoredRequests bounds how many requests per client are scored;
	// zero scores one full script cycle.
	ScoredRequests int
	// TraceReads is churn's traced replay length in reads; the other
	// workloads replay one script cycle per client.
	TraceReads int
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// tileCache and live select the server configuration.
	tileCache bool
	live      bool
	// prefill replays every client's script once during set-up.
	prefill bool
	// pacedReplay keeps the clients' goroutines and pacing in the traced
	// replay, because whether background prefetch lands depends on
	// them; other workloads replay sequentially, so their traces and
	// counts repeat exactly.
	pacedReplay bool
	p           params
}

var workloads = []*workload{
	{
		name:      "browse",
		why:       "tile cache on, static store, two paced clients over prefilled popular areas: server encoding and tilecache stitch/lookup do the work, core does none",
		tileCache: true,
		prefill:   true,
		p: params{
			N: 20000, K: 25, ThetaFrac: 0.003, Clients: 2, Pace: 5 * time.Millisecond,
			Areas: 10, AreaObjects: 300, AreaWork: 150e3, WalkEnvelope: 150,
		},
	},
	{
		name:        "explore",
		pacedReplay: true,
		why:         "no tile cache: two paced session users zoom and pan, prefetching while they think, so isos, prefetch, core and geodata region queries do the work",
		p: params{
			N: 5000, K: 25, ThetaFrac: 0.003, Clients: 2, Pace: 40 * time.Millisecond,
			Walks: 20, WalkEnvelope: 300,
		},
	},
	{
		name:      "churn",
		why:       "live store plus tile cache: lock-step 16-update epochs dirty hot tile blocks a reader revisits, so invalidation refills form the tail",
		tileCache: true,
		live:      true,
		prefill:   true,
		p: params{
			N: 20000, K: 25, ThetaFrac: 0.003, Clients: 1,
			HotBlocks: 4, HotZoom: 6, HotObjects: 250, HotWork: 18e3, EpochEvery: 8, EpochSize: 16,
			ScoredRequests: 24, TraceReads: 160,
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizedViewport returns the square viewport centred near c whose
// scale-times larger concentric square holds about target objects,
// shifted to lie inside the unit square. Scale 1 sizes the viewport
// itself; scale 3 sizes a session's pan and zoom-out prefetch envelope.
func sizedViewport(idx *geodata.Store, c geo.Point, target int, scale float64) geo.Rect {
	lo, hi := 1e-4, 0.25
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if idx.CountRegion(clampUnit(geo.RectAround(c, scale*mid))) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return clampUnit(geo.RectAround(c, hi))
}

// tileWork is the pair work of filling every tile r's viewport covers:
// a greedy fill evaluates about |tile|² object pairs.
func tileWork(idx *geodata.Store, r geo.Rect) float64 {
	var w float64
	for _, t := range coverTiles(r) {
		c := float64(idx.CountRegion(t.Rect()))
		w += c * c
	}
	return w
}

// workCandidates is how many viewports pickByWork draws.
const workCandidates = 48

// pickByWork draws viewports of about objects objects and keeps the one
// whose tile work is closest to work (by ratio).
func pickByWork(col *geodata.Collection, idx *geodata.Store, rng *rand.Rand, objects int, work float64) geo.Rect {
	var best geo.Rect
	bestDist := math.Inf(1)
	for i := 0; i < workCandidates; i++ {
		v := sizedViewport(idx, randomCenter(col, rng), objects, 1)
		if d := math.Abs(math.Log(tileWork(idx, v) / work)); d < bestDist {
			best, bestDist = v, d
		}
	}
	return best
}

// clampUnit shifts r into the unit square without resizing it.
func clampUnit(r geo.Rect) geo.Rect {
	var d geo.Point
	if r.Min.X < 0 {
		d.X = -r.Min.X
	} else if r.Max.X > 1 {
		d.X = 1 - r.Max.X
	}
	if r.Min.Y < 0 {
		d.Y = -r.Min.Y
	} else if r.Max.Y > 1 {
		d.Y = 1 - r.Max.Y
	}
	return r.Translate(d)
}

// panned moves r by the given fractions of its side.
func panned(r geo.Rect, fx, fy float64) geo.Rect {
	return clampUnit(r.Translate(geo.Pt(fx*r.Width(), fy*r.Height())))
}

// tileZoom mirrors the cache's choice of pyramid level for a viewport:
// the deepest level whose tiles are at least half the viewport side.
func tileZoom(side float64) int {
	z := int(math.Floor(1 - math.Log2(side)))
	if z < 0 {
		return 0
	}
	if z > 24 {
		return 24
	}
	return z
}

// coverTiles lists the tiles of r's zoom level that overlap r.
func coverTiles(r geo.Rect) []tilecache.Tile {
	z := tileZoom(r.Width())
	n := 1 << z
	s := math.Ldexp(1, -z)
	cl := func(v int) int { return min(max(v, 0), n-1) }
	var out []tilecache.Tile
	for y := cl(int(r.Min.Y / s)); y <= cl(int(r.Max.Y/s)); y++ {
		for x := cl(int(r.Min.X / s)); x <= cl(int(r.Max.X/s)); x++ {
			out = append(out, tilecache.Tile{Z: int32(z), X: int32(x), Y: int32(y)})
		}
	}
	return out
}

// randomCenter draws an object location, so centres follow the density
// of the map: users look where the POIs are.
func randomCenter(col *geodata.Collection, rng *rand.Rand) geo.Point {
	return col.Objects[rng.Intn(len(col.Objects))].Loc
}

// browseScripts gives each client one cycle over the popular areas: per
// area three /select viewports, two tiles fetched in full then
// revalidated, and a street-level start/zoomin/pan/zoomout walk in a
// session of its own. Deleting the session after the walk cancels its
// background prefetch, so no bound computation outlives the walk.
func browseScripts(col *geodata.Collection, idx *geodata.Store, p params, seed int64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	areas := make([]geo.Rect, p.Areas)
	for i := range areas {
		areas[i] = pickByWork(col, idx, rng, p.AreaObjects, p.AreaWork)
	}
	scripts := make([][]request, p.Clients)
	for c := range scripts {
		var s []request
		for _, a := range rng.Perm(len(areas)) {
			v := areas[a]
			tiles := coverTiles(v)
			t0, t1 := tiles[0], tiles[len(tiles)-1]
			s = append(s,
				request{op: opSelect, region: v},
				request{op: opTile, tile: t0},
				request{op: opSelect, region: panned(v, 0.25, 0)},
				request{op: opTile, tile: t0, cond: true},
			)
			street := sizedViewport(idx, v.Center(), p.WalkEnvelope, 3)
			s = append(s, request{op: opSession, nav: "create"})
			s = append(s, walk(street, []string{"zoomin", "pan", "zoomout"}, rng)...)
			s = append(s,
				request{op: opSession, nav: "delete"},
				request{op: opTile, tile: t1},
				request{op: opTile, tile: t1, cond: true},
				request{op: opSelect, region: panned(v, 0, -0.25)},
			)
		}
		scripts[c] = s
	}
	return scripts
}

// exploreWalk is the navigation pattern of every explore walk: down two
// zoom levels and back with pans at each, so every seed's runs visit
// the same mix of levels and only places and directions vary.
var exploreWalk = []string{"zoomin", "pan", "zoomin", "pan", "zoomout", "pan", "zoomout", "pan"}

// exploreScripts gives each user a cycle of seeded walks: a start on a
// fresh viewport, then the exploreWalk pattern of zoom-ins to a random
// quarter, pans and zoom-outs.
func exploreScripts(col *geodata.Collection, idx *geodata.Store, p params, seed int64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]request, p.Clients)
	for c := range scripts {
		var s []request
		for w := 0; w < p.Walks; w++ {
			v := sizedViewport(idx, randomCenter(col, rng), p.WalkEnvelope, 3)
			s = append(s, walk(v, exploreWalk, rng)...)
		}
		scripts[c] = s
	}
	return scripts
}

// walk turns a start viewport and a list of operations into session
// requests, tracking the region each lands on.
func walk(start geo.Rect, ops []string, rng *rand.Rand) []request {
	out := []request{{op: opNav, nav: "start", region: start}}
	cur := start
	for _, op := range ops {
		req := request{op: opNav, nav: op, prev: cur}
		side := cur.Width()
		switch op {
		case "zoomin":
			h := side / 4
			c := geo.Pt(cur.Min.X+h+rng.Float64()*2*h, cur.Min.Y+h+rng.Float64()*2*h)
			req.region = geo.RectAround(c, h)
			if !cur.ContainsRect(req.region) {
				req.region = geo.RectAround(cur.Center(), h)
			}
		case "zoomout":
			req.region = cur.ScaleAroundCenter(2)
		case "pan":
			a := rng.Float64() * 2 * math.Pi
			req.delta = geo.Pt(0.3*side*math.Cos(a), 0.3*side*math.Sin(a))
			req.region = cur.Translate(req.delta)
		}
		out = append(out, req)
		cur = req.region
	}
	return out
}

// churnPlan is the churn workload's seeded inputs: the hot viewports
// the reader cycles over and the writer's update stream, which moves
// objects of one hot viewport per epoch, in turn.
type churnPlan struct {
	hot    []geo.Rect
	reader []request
	// hotIDs[b] are the objects inside hot[b] at version 0; updates
	// move them within it, so the sets never change.
	hotIDs [][]int
	// work is each hot viewport's tile pair work (tileWork).
	work []float64
	seed int64
}

func newChurnPlan(col *geodata.Collection, idx *geodata.Store, p params, seed int64) *churnPlan {
	plan := &churnPlan{seed: seed + 1}
	for _, h := range hotBlocks(idx, p) {
		var ids []int
		for _, o := range col.Objects {
			if h.Contains(o.Loc) {
				ids = append(ids, o.ID)
			}
		}
		plan.hot = append(plan.hot, h)
		plan.hotIDs = append(plan.hotIDs, ids)
		plan.work = append(plan.work, tileWork(idx, h))
		plan.reader = append(plan.reader, request{op: opSelect, region: h})
	}
	return plan
}

// hotBlocks returns HotBlocks viewports, each just inside the 2×2 block
// of zoom-HotZoom tiles around a tile corner: the cache serves one from
// exactly those four tiles, and updates spread over it dirty all four,
// so every epoch costs about the same refill. Of all corners it keeps
// those whose blocks come closest to holding HotObjects objects and
// carrying HotWork object pairs (a fill costs about |tile|² pair
// evaluations plus work linear in |tile|), each at least a tile clear
// of the others so one block's dirty grid cells never reach another's
// tiles.
func hotBlocks(idx *geodata.Store, p params) []geo.Rect {
	s := math.Ldexp(1, -p.HotZoom)
	type cand struct {
		v    geo.Rect
		dist float64
	}
	var cands []cand
	for i := 1; i < 1<<p.HotZoom; i++ {
		for j := 1; j < 1<<p.HotZoom; j++ {
			v := geo.RectAround(geo.Pt(float64(i)*s, float64(j)*s), 0.99*s)
			n := float64(idx.CountRegion(v))
			if n == 0 {
				continue
			}
			d := math.Abs(math.Log(tileWork(idx, v)/p.HotWork)) + math.Abs(math.Log(n/float64(p.HotObjects)))
			cands = append(cands, cand{v, d})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	var out []geo.Rect
	for _, c := range cands {
		if len(out) == p.HotBlocks {
			break
		}
		if !overlapsAny(out, c.v.Expand(s)) {
			out = append(out, c.v)
		}
	}
	return out
}

func overlapsAny(rs []geo.Rect, r geo.Rect) bool {
	for _, q := range rs {
		if q.Intersects(r) {
			return true
		}
	}
	return false
}

// epochs returns the writer's update stream: each call of next yields
// the following epoch's batch, the same sequence for the same plan.
func (cp *churnPlan) epochs(size int, texts func(id int) string) func() []livestore.Mutation {
	rng := rand.New(rand.NewSource(cp.seed))
	epoch := 0
	return func() []livestore.Mutation {
		b := epoch % len(cp.hot)
		epoch++
		h, hot := cp.hot[b], cp.hotIDs[b]
		muts := make([]livestore.Mutation, size)
		for i := range muts {
			id := hot[rng.Intn(len(hot))]
			muts[i] = livestore.Mutation{
				Op: livestore.OpUpdate, ID: id,
				Loc: geo.Pt(
					h.Min.X+rng.Float64()*h.Width(),
					h.Min.Y+rng.Float64()*h.Height(),
				),
				Weight: 0.05 + 0.9*rng.Float64(),
				Text:   texts(id),
			}
		}
		return muts
	}
}
