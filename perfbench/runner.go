package main

import (
	"fmt"
	"sync"
	"time"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
)

// plan is a workload's seeded inputs, generated once per run from the
// seed before any server starts.
type plan struct {
	scripts [][]request // one script cycle per client (churn: the reader)
	churn   *churnPlan
}

func makePlan(w *workload, seed int64) (*plan, error) {
	col, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	idx, err := geodata.NewStore(col)
	if err != nil {
		return nil, err
	}
	pl := &plan{}
	switch w.name {
	case "browse":
		pl.scripts = browseScripts(col, idx, w.p, seed+1)
	case "explore":
		pl.scripts = exploreScripts(col, idx, w.p, seed+1)
	case "churn":
		pl.churn = newChurnPlan(col, idx, w.p, seed+1)
		pl.scripts = [][]request{pl.churn.reader}
	}
	return pl, nil
}

// describe summarizes the generated inputs for the report line.
func (pl *plan) describe() map[string]any {
	var lens []int
	for _, s := range pl.scripts {
		lens = append(lens, len(s))
	}
	out := map[string]any{"script_lengths": lens}
	if pl.churn != nil {
		var objs []int
		for _, ids := range pl.churn.hotIDs {
			objs = append(objs, len(ids))
		}
		out["hot_viewports"] = pl.churn.hot
		out["hot_objects"] = objs
		out["hot_tile_work"] = pl.churn.work
	}
	return out
}

// scored reports how many requests of a client's script are scored.
func (w *workload) scored(script []request) int {
	if w.p.ScoredRequests > 0 {
		return w.p.ScoredRequests
	}
	return len(script)
}

// phaseResult is one measured phase as the clients saw it.
type phaseResult struct {
	rec  recorder
	wall time.Duration
	// problems are workload-level check failures (counter hygiene,
	// invalidation self-check) on top of per-request ones.
	problems []string
	epochs   int
}

// prefill replays each client's script once, unmeasured, so the tile
// cache holds every tile the measured phase will ask for.
func prefill(clients []*client, scripts [][]request) error {
	for i, c := range clients {
		for _, req := range scripts[i] {
			if res := c.do(req); res.err != nil {
				return fmt.Errorf("prefill: %v", res.err)
			}
		}
	}
	return nil
}

// runClosedLoop runs every client over its script cycle until the
// deadline has passed and each has completed at least the scored
// prefix. The first scored requests of each client are scored exactly.
func runClosedLoop(w *workload, clients []*client, scripts [][]request, d time.Duration) phaseResult {
	recs := make([]recorder, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			script, rec := scripts[i], &recs[i]
			need := w.scored(script)
			for n := 0; n < need || time.Now().Before(deadline); n++ {
				pace(w.p, t0, i, n)
				req := script[n%len(script)]
				res := c.do(req)
				rec.record(res)
				if n < need && res.err == nil && res.objs != nil {
					rec.keep(c.m, req.region, res.theta, res.objs)
				}
			}
		}(i, c)
	}
	wg.Wait()
	out := phaseResult{wall: time.Since(t0)}
	for i := range recs {
		out.rec.merge(&recs[i])
	}
	return out
}

// pace waits for client i's n-th slot when the workload is paced. Each
// slot is moved by a fixed pseudo-random jitter of up to Pace/8 either
// way, so requests do not lock into step with periodic work in the
// server, such as garbage collection.
func pace(p params, t0 time.Time, i, n int) {
	if p.Pace <= 0 {
		return
	}
	slot := time.Duration(n)*p.Pace + time.Duration(i)*p.Pace/time.Duration(p.Clients)
	slot += time.Duration((unitHash(uint64(i)<<32|uint64(n)) - 0.5) * float64(p.Pace) / 4)
	if d := time.Until(t0.Add(slot)); d > 0 {
		time.Sleep(d)
	}
}

// unitHash maps x to [0, 1) with the splitmix64 finalizer.
func unitHash(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// runChurn runs the reader and the writer in lock-step: after every
// EpochEvery reads the reader hands over, the writer posts one epoch,
// folds it into the model once acknowledged, and hands back. Epochs are
// therefore acknowledged before the next read, and the invalidations
// they cause repeat exactly for a seed.
func runChurn(w *workload, reader, writer *client, pl *churnPlan, next func() []livestore.Mutation, d time.Duration) phaseResult {
	var rrec, wrec recorder
	var version uint64 // the store starts at version 0; each epoch adds one
	due, ack := make(chan struct{}), make(chan struct{})
	var dirtied bool
	epochs := 0
	go func() {
		for range due {
			muts := next()
			version++
			res := writer.ingest(muts, version)
			wrec.record(res)
			if res.err == nil {
				for _, u := range muts {
					old := writer.m.locate(u.ID)
					dirtied = dirtied || touchesAny(pl.reader, old) || touchesAny(pl.reader, u.Loc)
				}
				writer.m.apply(muts)
			}
			epochs++
			ack <- struct{}{}
		}
		close(ack)
	}()
	before, serr := reader.cacheStats()
	t0 := time.Now()
	deadline := t0.Add(d)
	need := w.scored(pl.reader)
	for n := 0; n < need || time.Now().Before(deadline); n++ {
		req := pl.reader[n%len(pl.reader)]
		res := reader.do(req)
		rrec.record(res)
		if n < need && res.err == nil {
			rrec.keep(reader.m, req.region, res.theta, res.objs)
		}
		if (n+1)%w.p.EpochEvery == 0 {
			due <- struct{}{}
			<-ack
		}
	}
	wall := time.Since(t0)
	close(due)
	<-ack
	out := phaseResult{wall: wall, epochs: epochs}
	out.rec.merge(&rrec)
	out.rec.merge(&wrec)
	after, aerr := reader.cacheStats()
	if serr != nil || aerr != nil {
		out.problems = append(out.problems, fmt.Sprintf("reading /cache/stats: %v %v", serr, aerr))
	} else if p := invalidationProblem(dirtied, before, after, epochs); p != "" {
		out.problems = append(out.problems, p)
	}
	return out
}

// invalidationProblem is churn's self-check: epochs that moved objects
// inside the reader's viewports must have invalidated cached tiles.
func invalidationProblem(dirtied bool, before, after cacheCounters, epochs int) string {
	if dirtied && after.Invalidations == before.Invalidations {
		return fmt.Sprintf("%d epochs dirtied tiles the reader visits but the cache reports 0 invalidations", epochs)
	}
	return ""
}

// warmProblem is browse's self-check: the measured phase is the
// in-cache case, so it must compute and evict no tile. Only tile
// counters decide this; the response warm flag also marks stitched
// serves whose tiles were computed by that same request.
func warmProblem(before, after cacheCounters) string {
	if after.TileMisses != before.TileMisses || after.Evictions != before.Evictions {
		return fmt.Sprintf("measured phase computed %d tiles and evicted %d; want 0 and 0",
			after.TileMisses-before.TileMisses, after.Evictions-before.Evictions)
	}
	return ""
}

// touchesAny reports whether p lies in any scripted viewport, and so in
// a tile the reader visits.
func touchesAny(script []request, p geo.Point) bool {
	for _, r := range script {
		if r.region.Contains(p) {
			return true
		}
	}
	return false
}
