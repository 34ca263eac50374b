package main

import (
	"reflect"
	"testing"
	"time"

	"geosel/internal/geo"
	"geosel/internal/tilecache"
)

// shrunk returns a copy of a workload small enough for a unit test.
func shrunk(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.p.N = 3000
	c.p.Areas = 2
	c.p.AreaObjects = 60
	c.p.AreaWork = 5e3
	c.p.HotWork = 5e3
	c.p.TraceReads = 40
	c.p.ScoredRequests = 16
	return &c
}

// spanShape is a span without its timing.
type spanShape struct {
	Name        string
	Parent, Req int
}

func traceShape(t *testing.T, w *workload, seed int64) ([]spanShape, map[string]metric) {
	t.Helper()
	pl, err := makePlan(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := traceRun(w, pl, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("traced replay failed checks: %v", res.problems)
	}
	// Background spans (a session's prefetch) depend on timing; the
	// request tree does not. Parents are renumbered among the
	// foreground spans.
	var shape []spanShape
	ordinal := map[int]int{-1: -1}
	for _, s := range res.tr.spans {
		if s.Req >= 0 {
			ordinal[s.ID] = len(shape)
			shape = append(shape, spanShape{s.Name, ordinal[s.Parent], s.Req})
		}
	}
	m := &measurement{setups: []float64{1}}
	m.phase.wall = time.Second
	return shape, perLayer(m, res)
}

// The sequential replays trace the same span tree and count the same
// cache and store work every time for a seed.
func TestTracesAreDeterministic(t *testing.T) {
	counts := map[string][]string{
		"browse": {"tilecache.hit_ratio", "tilecache.tile_misses", "tilecache.evictions"},
		"churn":  {"tilecache.tile_misses", "tilecache.invalidations", "livestore.dirty_cells", "livestore.epochs", "livestore.dead_slots"},
	}
	for name, keys := range counts {
		t.Run(name, func(t *testing.T) {
			w := shrunk(t, name)
			s1, m1 := traceShape(t, w, 7)
			s2, m2 := traceShape(t, w, 7)
			if len(s1) == 0 || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("span trees differ between two replays of seed 7 (%d vs %d spans)", len(s1), len(s2))
			}
			for _, k := range keys {
				if m1[k].Value != m2[k].Value {
					t.Errorf("%s: %v then %v", k, m1[k].Value, m2[k].Value)
				}
			}
			if name == "browse" && m1["tilecache.hit_ratio"].Value != 1 {
				t.Errorf("browse replay hit ratio %v, want 1 after prefill", m1["tilecache.hit_ratio"].Value)
			}
			if name == "churn" && (m1["tilecache.invalidations"].Value == 0 || m1["livestore.epochs"].Value == 0) {
				t.Errorf("churn replay saw %v invalidations over %v epochs", m1["tilecache.invalidations"].Value, m1["livestore.epochs"].Value)
			}
		})
	}
}

// score_ratio and the exact scores behind it cover a fixed prefix of
// each client's script, so they repeat for a seed however many requests
// a run serves.
func TestScoresRepeatForASeed(t *testing.T) {
	for _, name := range []string{"browse", "churn"} {
		t.Run(name, func(t *testing.T) {
			w := shrunk(t, name)
			pl, err := makePlan(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			var scores [][]float64
			for i := 0; i < 2; i++ {
				m, err := measure(w, pl, 3, time.Millisecond, 1)
				if err != nil {
					t.Fatal(err)
				}
				if m.phase.rec.failed != 0 || len(m.problems()) != 0 {
					t.Fatalf("run failed checks: %v %v", m.phase.rec.errs, m.problems())
				}
				scores = append(scores, append(m.scores, m.endToEnd()["score_ratio"].Value))
			}
			if !reflect.DeepEqual(scores[0], scores[1]) || len(scores[0]) < 2 {
				t.Fatalf("scores %v then %v", scores[0], scores[1])
			}
		})
	}
}

func TestIsTileRect(t *testing.T) {
	if !isTileRect(tilecache.Tile{Z: 5, X: 3, Y: 17}.Rect()) {
		t.Error("a pyramid tile not recognised")
	}
	if isTileRect(geo.Rect{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.2, 0.2)}) {
		t.Error("a viewport taken for a tile")
	}
}
