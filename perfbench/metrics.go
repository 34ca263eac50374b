package main

import (
	"sort"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); moves
// records which end-to-end metric a per-layer metric should move, and
// on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the tolerated share of regression
	moves  string
}

// endToEndDefs are what a client sees, reported by the untraced run on
// every workload.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "score_ratio", unit: "ratio", better: "higher", bound: 0.05},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// perLayerDefs are reported by the traced run. A layer that does no
// work of a kind on a workload reports 0 for it.
var perLayerDefs = []metricDef{
	{"server.overhead_us.select", "us", "lower", 0, "p50_ms on browse: /select transport, JSON and routing"},
	{"server.overhead_us.tile", "us", "lower", 0, "p50_ms on browse: /tiles transport and routing"},
	{"server.overhead_us.nav", "us", "lower", 0, "p50_ms on browse and explore: session navigation transport and JSON"},
	{"server.overhead_us.ingest", "us", "lower", 0, "p95_ms on churn: /ingest decoding"},
	{"server.overhead_us.session", "us", "lower", 0, "p50_ms on browse: session create/delete"},
	{"server.resp_bytes.select", "B", "lower", 0, "p50_ms on browse"},
	{"server.resp_bytes.tile", "B", "lower", 0, "p50_ms on browse"},
	{"server.resp_bytes.nav", "B", "lower", 0, "p50_ms on explore"},
	{"tilecache.select_self_us", "us", "lower", 0, "p50_ms on browse"},
	{"tilecache.repair_us", "us", "lower", 0, "p50_ms on browse"},
	{"tilecache.payload_us", "us", "lower", 0, "p50_ms on browse"},
	{"tilecache.warm_nav_frac", "ratio", "higher", 0, "p95_ms on browse"},
	{"tilecache.full_warm_frac", "ratio", "higher", 0, "p95_ms on churn"},
	{"tilecache.hit_ratio", "ratio", "higher", 0, "p95_ms on churn"},
	{"tilecache.tile_misses", "count", "lower", 0, "p95_ms on churn"},
	{"tilecache.invalidations", "count", "lower", 0, "p95_ms on churn"},
	{"tilecache.coalesced", "count", "higher", 0, "p95_ms on churn"},
	{"tilecache.evictions", "count", "lower", 0, "p95_ms on churn"},
	{"tilecache.cold_fill_ms", "ms", "lower", 0, "p95_ms on churn, setup_s on browse"},
	{"tilecache.fallback_frac", "ratio", "lower", 0, "p95_ms and score_ratio on browse and churn"},
	{"tilecache.repair_dropped", "count", "lower", 0, "score_ratio on browse and churn"},
	{"isos.nav_self_us", "us", "lower", 0, "p50_ms on explore"},
	{"isos.prefetched_frac", "ratio", "higher", 0, "p50_ms on explore (timing-dependent)"},
	{"isos.candidates_mean", "count", "lower", 0, "p50_ms on explore"},
	{"isos.forced_mean", "count", "lower", 0, "p50_ms on explore"},
	{"prefetch.bounds_ms", "ms", "lower", 0, "p50_ms on explore, through isos.prefetched_frac"},
	{"core.run_ms", "ms", "lower", 0, "p95_ms on explore and churn"},
	{"core.evals", "count", "lower", 0, "p50_ms on explore"},
	{"core.region_objects", "count", "lower", 0, "p95_ms on explore"},
	{"geodata.region_us", "us", "lower", 0, "p50_ms on explore and browse"},
	{"livestore.apply_ms", "ms", "lower", 0, "p50_ms on churn, through /ingest"},
	{"livestore.epochs", "count", "higher", 0, "p95_ms on churn"},
	{"livestore.dirty_cells", "count", "lower", 0, "p95_ms on churn"},
	{"livestore.dead_slots", "count", "lower", 0, "heap growth over a churn run (report heap_after_mb)"},
	{"process.gc_pause_ms", "ms/s", "lower", 0, "p95_ms on browse"},
	{"process.alloc_kb_per_req", "KB", "lower", 0, "throughput_rps on browse"},
	{"trace.overhead_us", "us", "lower", 0, "none: the traced run's own cost per request"},
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perLayer derives the per-layer metrics from the traced replay and the
// untraced phase that ran before it in the same process.
func perLayer(m *measurement, t *traceResult) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{Value: v} }
	spans := t.tr.spans

	// Per request, the time inside layer calls: the direct children of
	// the request's root span. childSum is the same for every span,
	// leaving out region queries a tile fill made inside its own timing.
	layerSum := map[int]time.Duration{}
	childSum := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if spans[s.Parent].Parent < 0 {
			layerSum[s.Parent] += s.dur()
		}
		if s.Name != "geodata.Region.tile" {
			childSum[s.Parent] += s.dur()
		}
	}
	traced := [numOps][]float64{}
	requests, foreground := 0, 0
	for _, s := range spans {
		if s.Req >= 0 {
			foreground++
		}
		if s.Parent >= 0 || s.Req < 0 {
			continue
		}
		requests++
		for op := opKind(0); op < numOps; op++ {
			if s.Name == op.String() {
				traced[op] = append(traced[op], us(layerSum[s.ID]))
			}
		}
	}
	for op := opKind(0); op < numOps; op++ {
		l := &m.phase.rec.lat[op]
		var overhead, bytes float64
		if len(l.ms) > 0 && len(traced[op]) > 0 {
			p50, _, _ := l.summary()
			overhead = p50.Value*1e3 - median(traced[op])
		}
		if len(l.ms) > 0 {
			bytes = float64(m.phase.rec.bytes[op]) / float64(len(l.ms))
		}
		set("server.overhead_us."+op.String(), overhead)
		if op != opIngest && op != opSession {
			set("server.resp_bytes."+op.String(), bytes)
		}
	}

	// Tile cache: self time of Select is its span minus the tile fills
	// it triggered (counted by the cache) and the region queries it made
	// outside those fills.
	var selfUs []float64
	for _, o := range t.selects {
		selfUs = append(selfUs, us(spans[o.span].dur()-time.Duration(o.coldNs)-childSum[o.span]))
	}
	set("tilecache.select_self_us", median(selfUs))
	var payloadUs []float64
	warm, lookups := 0, 0
	for _, o := range t.tiles {
		payloadUs = append(payloadUs, us(spans[o.span].dur()))
	}
	set("tilecache.payload_us", median(payloadUs))
	for _, o := range append(append([]cacheObs(nil), t.selects...), t.tiles...) {
		lookups++
		if o.misses == 0 && o.hits > 0 {
			warm++
		}
	}
	set("tilecache.full_warm_frac", ratio(float64(warm), float64(lookups)))
	c0, c1 := t.cache0, t.cache1
	d := func(a, b uint64) float64 { return float64(b - a) }
	set("tilecache.repair_us", ratio(d(c0.RepairNs.SumNs, c1.RepairNs.SumNs), d(c0.RepairNs.Count, c1.RepairNs.Count))/1e3)
	set("tilecache.warm_nav_frac", ratio(d(c0.WarmNavigations, c1.WarmNavigations),
		d(c0.WarmNavigations, c1.WarmNavigations)+d(c0.WarmNavMisses, c1.WarmNavMisses)))
	set("tilecache.hit_ratio", ratio(d(c0.TileHits, c1.TileHits), d(c0.TileHits, c1.TileHits)+d(c0.TileMisses, c1.TileMisses)))
	set("tilecache.tile_misses", d(c0.TileMisses, c1.TileMisses))
	set("tilecache.invalidations", d(c0.Invalidations, c1.Invalidations))
	set("tilecache.coalesced", d(c0.Coalesced, c1.Coalesced))
	set("tilecache.evictions", d(c0.Evictions, c1.Evictions))
	set("tilecache.repair_dropped", d(c0.RepairDropped, c1.RepairDropped))
	set("tilecache.fallback_frac", ratio(d(c0.Fallbacks, c1.Fallbacks), d(c0.Requests, c1.Requests)))
	set("tilecache.cold_fill_ms", ratio(float64(c1.ColdComputeNs.SumNs), float64(c1.ColdComputeNs.Count))/1e6)

	// Sessions: a navigation's isos self time is its span minus the
	// selection time the session reports; core is what ran the greedy.
	var navSelf, cand, forced, evals, regionObjs []float64
	prefetched, constrained := 0, 0
	coreNs := float64(c1.ColdComputeNs.SumNs - c0.ColdComputeNs.SumNs)
	coreRuns := float64(c1.ColdComputeNs.Count - c0.ColdComputeNs.Count)
	for _, n := range t.navs {
		navSelf = append(navSelf, us(spans[n.span].dur()-n.sel.Elapsed))
		if n.op != "start" {
			cand = append(cand, float64(n.sel.CandidateCount))
			forced = append(forced, float64(n.sel.ForcedCount))
		}
		if n.sel.Warm {
			continue
		}
		coreNs += float64(n.sel.Elapsed.Nanoseconds())
		coreRuns++
		evals = append(evals, float64(n.sel.Evals))
		regionObjs = append(regionObjs, float64(n.sel.RegionObjects))
		if n.op != "start" {
			constrained++
			if n.sel.Prefetched {
				prefetched++
			}
		}
	}
	set("isos.nav_self_us", median(navSelf))
	set("isos.prefetched_frac", ratio(float64(prefetched), float64(constrained)))
	set("isos.candidates_mean", mean(cand))
	set("isos.forced_mean", mean(forced))
	set("prefetch.bounds_ms", mean(t.prefetchMs))
	set("core.run_ms", ratio(coreNs, coreRuns)/1e6)
	set("core.evals", mean(evals))
	set("core.region_objects", mean(regionObjs))

	var regionUs []float64
	for _, s := range spans {
		if s.Parent >= 0 && len(s.Name) > 8 && s.Name[:8] == "geodata." {
			regionUs = append(regionUs, us(s.dur()))
		}
	}
	set("geodata.region_us", mean(regionUs))

	var applyMs, dirty []float64
	for _, e := range t.epochs {
		applyMs = append(applyMs, us(spans[e.span].dur())/1e3)
		dirty = append(dirty, float64(e.dirty))
	}
	set("livestore.apply_ms", mean(applyMs))
	set("livestore.epochs", float64(len(t.epochs)))
	set("livestore.dirty_cells", mean(dirty))
	set("livestore.dead_slots", float64(t.live1.DeadSlots))

	set("process.gc_pause_ms", m.gcPauseMs/m.phase.wall.Seconds())
	set("process.alloc_kb_per_req", ratio(float64(m.allocBytes)/1024, float64(m.phase.rec.attempted)))
	set("trace.overhead_us", ratio(us(t.spanCost)*float64(foreground), float64(requests)))

	for _, def := range perLayerDefs {
		mt := out[def.name]
		mt.Unit = def.unit
		out[def.name] = mt
	}
	return out
}

// report summarizes the traced replay for the report line.
func (t *traceResult) report() map[string]any {
	counts := map[string]int{}
	for _, s := range t.tr.spans {
		counts[s.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	spans := make([]map[string]any, 0, len(names))
	for _, n := range names {
		spans = append(spans, map[string]any{"name": n, "count": counts[n]})
	}
	return map[string]any{
		"requests":     t.tr.reqs,
		"spans":        spans,
		"span_cost_ns": t.spanCost.Nanoseconds(),
		"prefetch_ms":  t.prefetchMs,
	}
}
