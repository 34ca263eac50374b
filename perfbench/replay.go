package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/prefetch"
	"geosel/internal/tilecache"
)

// The traced run replays the untraced run's request sequence without
// HTTP: each request calls the layer functions the server's handler
// would call, inside spans, and reads the layers' public counters
// around them. Browse and churn replay sequentially, so per-call
// counter deltas belong to that call alone (see workload.pacedReplay).

// navObs is one traced session navigation.
type navObs struct {
	span int
	op   string
	sel  isos.Selection
	vp   geo.Rect
}

// cacheObs is one traced tile-cache call with the counter changes it
// caused.
type cacheObs struct {
	span   int
	coldNs uint64
	colds  uint64
	misses uint64
	hits   uint64
}

// epochObs is one traced ingest.
type epochObs struct {
	span  int
	dirty int
}

// traceResult is everything the traced replay observed.
type traceResult struct {
	tr        *tracer
	attempted int
	failed    int
	problems  []string

	mu      sync.Mutex
	navs    []navObs
	selects []cacheObs
	tiles   []cacheObs
	epochs  []epochObs

	cache0, cache1 tilecache.Stats
	live1          livestore.Stats
	hasCache       bool
	hasLive        bool
	prefetchMs     []float64
	spanCost       time.Duration
}

func (t *traceResult) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, "traced replay: "+err.Error())
	}
}

// replayer is one traced client.
type replayer struct {
	w     *workload
	cfg   engine.Config
	res   *traceResult
	tr    *tracer
	cur   *cursor
	src   *tracedSource
	cache *tilecache.Cache
	live  *livestore.Store
	m     *model

	sess    *isos.Session
	visible []int
	etags   map[tilecache.Tile]string
	version uint64
}

// tracedWarmer spans the tile cache's warm-navigation entry point, the
// one call a session makes into the cache.
type tracedWarmer struct {
	c   *tilecache.Cache
	tr  *tracer
	cur *cursor
}

func (w *tracedWarmer) WarmNavigate(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, forced, candidates []int) (pos []int, score float64, n int, ok bool) {
	w.tr.call(w.cur, "tilecache.WarmNavigate", func() {
		pos, score, n, ok = w.c.WarmNavigate(ctx, view, version, region, k, theta, forced, candidates)
	})
	return
}

func (r *replayer) do(req request) {
	r.res.mu.Lock()
	r.res.attempted++
	r.res.mu.Unlock()
	var err error
	r.tr.call(r.cur, req.op.String(), func() {
		switch req.op {
		case opSelect:
			err = r.doSelect(req)
		case opTile:
			err = r.doTile(req)
		case opNav:
			err = r.doNav(req)
		case opSession:
			err = r.doSession(req)
		}
	})
	if err != nil {
		r.res.fail(err)
	}
}

// cacheCall runs one tile-cache call in a span and records the counter
// changes around it.
func (r *replayer) cacheCall(name string, f func()) cacheObs {
	s0 := r.cache.Stats()
	id := r.tr.begin(r.cur, name)
	f()
	r.tr.end(r.cur, id)
	s1 := r.cache.Stats()
	return cacheObs{
		span:   id,
		coldNs: s1.ColdComputeNs.SumNs - s0.ColdComputeNs.SumNs,
		colds:  s1.ColdComputeNs.Count - s0.ColdComputeNs.Count,
		misses: s1.TileMisses - s0.TileMisses,
		hits:   s1.TileHits - s0.TileHits,
	}
}

func (r *replayer) record(dst *[]cacheObs, o cacheObs) {
	if o.span < 0 {
		return
	}
	r.res.mu.Lock()
	*dst = append(*dst, o)
	r.res.mu.Unlock()
}

func objectsAt(view geodata.View, pos []int) []objectJSON {
	objs := view.Collection().Objects
	out := make([]objectJSON, len(pos))
	for i, p := range pos {
		o := &objs[p]
		out[i] = objectJSON{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight}
	}
	return out
}

func (r *replayer) doSelect(req request) error {
	if r.cache == nil {
		return fmt.Errorf("select replay needs the tile cache")
	}
	view, ver := r.src.Snapshot()
	var res tilecache.Result
	var err error
	o := r.cacheCall("tilecache.Select", func() {
		res, err = r.cache.Select(context.Background(), view, ver, req.region, r.w.p.K, r.w.p.ThetaFrac*req.region.Width(), nil)
	})
	if err != nil {
		return err
	}
	r.record(&r.res.selects, o)
	return checkSelection(r.m, req.region, r.w.p.K, r.w.p.ThetaFrac*req.region.Width(), objectsAt(view, res.Positions))
}

func (r *replayer) doTile(req request) error {
	t := req.tile
	view, ver := r.src.Snapshot()
	var payload []byte
	var etag string
	var err error
	o := r.cacheCall("tilecache.TilePayload", func() {
		payload, etag, err = r.cache.TilePayload(context.Background(), view, ver, int(t.Z), int(t.X), int(t.Y),
			tilecache.DefaultTileTheta(t.Z, r.w.p.ThetaFrac), r.w.p.K, nil)
	})
	if err != nil {
		return err
	}
	r.record(&r.res.tiles, o)
	if req.cond {
		// The handler answers 304 exactly when the ETag is unchanged.
		if etag != r.etags[t] {
			return fmt.Errorf("tile %v: ETag %s changed from %s", t, etag, r.etags[t])
		}
		return nil
	}
	r.etags[t] = etag
	return checkTile(200, etag, payload, t, r.w.p.K)
}

func (r *replayer) doSession(req request) error {
	if req.nav == "delete" {
		r.tr.call(r.cur, "isos.Close", r.sess.Close)
		r.sess = nil
		return nil
	}
	cfg := isos.Config{Config: r.cfg}
	cfg.K = r.w.p.K
	cfg.ThetaFrac = r.w.p.ThetaFrac
	if r.cache != nil {
		cfg.Warmer = &tracedWarmer{c: r.cache, tr: r.tr, cur: r.cur}
	}
	var err error
	r.tr.call(r.cur, "isos.NewSession", func() { r.sess, err = isos.NewSession(r.src, cfg) })
	return err
}

func (r *replayer) doNav(req request) error {
	if r.sess == nil {
		if err := r.doSession(request{op: opSession, nav: "create"}); err != nil {
			return err
		}
	}
	ctx := context.Background()
	var sel *isos.Selection
	var err error
	name := map[string]string{"start": "isos.Start", "zoomin": "isos.ZoomIn", "zoomout": "isos.ZoomOut", "pan": "isos.Pan"}[req.nav]
	id := r.tr.begin(r.cur, name)
	switch req.nav {
	case "start":
		sel, err = r.sess.Start(ctx, req.region)
	case "zoomin":
		sel, err = r.sess.ZoomIn(ctx, req.region)
	case "zoomout":
		sel, err = r.sess.ZoomOut(ctx, req.region)
	default:
		sel, err = r.sess.Pan(ctx, req.delta)
	}
	r.tr.end(r.cur, id)
	if err != nil {
		return err
	}
	if id >= 0 {
		r.res.mu.Lock()
		r.res.navs = append(r.res.navs, navObs{span: id, op: req.nav, sel: *sel, vp: req.region})
		r.res.mu.Unlock()
	}
	view, _ := r.sess.View()
	objs := objectsAt(view, sel.Positions)
	side := max(req.region.Width(), req.region.Height())
	err = checkSelection(r.m, req.region, r.w.p.K, r.w.p.ThetaFrac*side, objs)
	if err == nil {
		err = checkTransition(r.m, req, r.visible, objs)
	}
	r.visible = ids(objs)
	return err
}

// ingest commits one epoch through Store.Apply and reads how many grid
// cells it dirtied.
func (r *replayer) ingest(muts []livestore.Mutation) {
	r.res.attempted++
	root := r.tr.begin(r.cur, opIngest.String())
	id := r.tr.begin(r.cur, "livestore.Apply")
	ver, out, err := r.live.Apply(context.Background(), muts)
	r.tr.end(r.cur, id)
	r.tr.end(r.cur, root)
	r.version++
	if err == nil {
		err = checkIngest(ingestJSON{Version: ver, Updated: out.Updated, Inserted: out.Inserted, Deleted: out.Deleted, Missed: out.Missed}, r.version, len(muts))
	}
	if err != nil {
		r.res.fail(err)
		return
	}
	r.m.apply(muts)
	cells, _ := r.live.Current().DirtyCells(ver-1, nil)
	r.res.epochs = append(r.res.epochs, epochObs{span: id, dirty: len(cells)})
}

// traceRun sets up a fresh server stack (without HTTP), fills it like
// the untraced run, and replays the request sequence under the tracer.
func traceRun(w *workload, pl *plan, seed int64) (*traceResult, error) {
	col, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	cfg := serverConfig(w).WithDefaults()
	res := &traceResult{tr: newTracer(), spanCost: spanCost()}
	var src geodata.Source
	var live *livestore.Store
	if w.live {
		if live, err = livestore.New(col, cfg); err != nil {
			return nil, err
		}
		src = live
	} else if src, err = geodata.NewStore(col); err != nil {
		return nil, err
	}
	var cache *tilecache.Cache
	if w.tileCache {
		if cache, err = tilecache.New(cfg); err != nil {
			return nil, err
		}
	}
	m, err := newModel(col)
	if err != nil {
		return nil, err
	}
	rs := make([]*replayer, len(pl.scripts))
	for i := range rs {
		cur := &cursor{}
		rs[i] = &replayer{
			w: w, cfg: cfg, res: res, tr: res.tr, cur: cur,
			src:   &tracedSource{src: src, tr: res.tr, cur: cur},
			cache: cache, live: live, m: m, etags: make(map[tilecache.Tile]string),
		}
	}
	if w.prefill {
		for i, r := range rs {
			for _, req := range pl.scripts[i] {
				r.do(req)
			}
		}
	}
	if res.failed > 0 {
		return res, nil
	}
	res.attempted = 0
	if cache != nil {
		res.hasCache = true
		res.cache0 = cache.Stats()
	}
	res.tr.mu.Lock()
	res.tr.on = true
	res.tr.mu.Unlock()

	n := w.p.TraceReads
	switch {
	case w.live:
		next := pl.churn.epochs(w.p.EpochSize, func(id int) string { return m.objs[id].Text })
		r := rs[0]
		for i := 0; i < n; i++ {
			r.do(pl.churn.reader[i%len(pl.churn.reader)])
			if (i+1)%w.p.EpochEvery == 0 {
				r.ingest(next())
			}
		}
	case w.pacedReplay:
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, r := range rs {
			wg.Add(1)
			go func(i int, r *replayer) {
				defer wg.Done()
				for n, req := range pl.scripts[i] {
					pace(w.p, t0, i, n)
					r.do(req)
				}
			}(i, r)
		}
		wg.Wait()
	default:
		longest := 0
		for _, s := range pl.scripts {
			longest = max(longest, len(s))
		}
		for j := 0; j < longest; j++ {
			for i, r := range rs {
				if j < len(pl.scripts[i]) {
					r.do(pl.scripts[i][j])
				}
			}
		}
	}
	for _, r := range rs {
		if r.sess != nil {
			r.sess.Close()
		}
	}
	res.tr.mu.Lock()
	res.tr.on = false
	res.tr.mu.Unlock()
	if cache != nil {
		res.cache1 = cache.Stats()
	}
	if live != nil {
		res.hasLive = true
		res.live1 = live.Stats()
	}
	res.prefetchMs = prefetchPass(src, res.navs, cfg)
	return res, nil
}

// prefetchPassViews bounds the off-clock prefetch pass.
const prefetchPassViews = 8

// prefetchPass times the three Lemma 5.1–5.3 bound computations a
// session's background prefetch runs, for the first recorded
// viewports, on an otherwise idle process.
func prefetchPass(src geodata.Source, navs []navObs, cfg engine.Config) []float64 {
	view, _ := src.Snapshot()
	world, ok := view.Bounds()
	if !ok {
		return nil
	}
	ctx := context.Background()
	var out []float64
	for _, n := range navs {
		if len(out) == prefetchPassViews {
			break
		}
		vp := geo.NewViewport(world, n.vp)
		t0 := time.Now()
		_, e1 := prefetch.ZoomInBounds(ctx, view, vp.Region, cfg.Metric, cfg.Parallelism)
		_, e2 := prefetch.ZoomOutBounds(ctx, view, vp, cfg.MaxZoomOutScale, cfg.Metric, cfg.Parallelism)
		_, e3 := prefetch.PanBounds(ctx, view, vp, cfg.Metric, cfg.Parallelism)
		if e1 == nil && e2 == nil && e3 == nil {
			out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	return out
}

// spanCost calibrates what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.on = true
	c := &cursor{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(c, t.begin(c, "calibrate"))
	}
	return time.Since(t0) / n
}
