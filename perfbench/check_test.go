package main

import (
	"strings"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// testModel is a 4-object store: three close together in the lower-left
// corner and one far away.
func testModel() *model {
	col := geodata.NewCollection()
	col.Add(0, geo.Pt(0.10, 0.10), 0.5, "cafe")
	col.Add(1, geo.Pt(0.20, 0.10), 0.5, "bar")
	col.Add(2, geo.Pt(0.10, 0.20), 0.5, "park")
	col.Add(3, geo.Pt(0.90, 0.90), 0.5, "museum")
	m, err := newModel(col)
	if err != nil {
		panic(err)
	}
	return m
}

func servedAs(m *model, ids ...int) []objectJSON {
	out := make([]objectJSON, len(ids))
	for i, id := range ids {
		o := m.objs[id]
		out[i] = objectJSON{ID: id, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight}
	}
	return out
}

var lowerLeft = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(0.5, 0.5)}

// Each check catches one seeded violation and passes the clean case.
func TestChecksCatchSeededViolations(t *testing.T) {
	m := testModel()
	if err := checkSelection(m, lowerLeft, 3, 0.05, servedAs(m, 0, 1, 2)); err != nil {
		t.Fatalf("valid selection rejected: %v", err)
	}
	stale := servedAs(m, 0, 1)
	stale[1].X += 0.01 // served where the object was before an epoch
	for name, err := range map[string]error{
		"more than k":   checkSelection(m, lowerLeft, 2, 0.05, servedAs(m, 0, 1, 2)),
		"outside":       checkSelection(m, lowerLeft, 3, 0.05, servedAs(m, 0, 3)),
		"closer than θ": checkSelection(m, lowerLeft, 3, 0.15, servedAs(m, 0, 1)),
		"stale":         checkSelection(m, lowerLeft, 3, 0.05, stale),
		"unknown id":    checkSelection(m, lowerLeft, 3, 0.05, []objectJSON{{ID: 9}}),
	} {
		if err == nil {
			t.Errorf("%s: violation not caught", name)
		}
	}
}

func TestTransitionCheckCatchesDroppedObject(t *testing.T) {
	m := testModel()
	inner := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(0.25, 0.25)}
	req := request{op: opNav, nav: "zoomin", prev: lowerLeft, region: inner}
	if err := checkTransition(m, req, []int{0, 1}, servedAs(m, 0, 1, 2)); err != nil {
		t.Fatalf("valid zoom-in rejected: %v", err)
	}
	// Object 1 was visible and lies inside the zoomed-in region.
	if err := checkTransition(m, req, []int{0, 1}, servedAs(m, 0, 2)); err == nil {
		t.Fatal("zoom-in that drops a visible object not caught")
	}
	start := request{op: opNav, nav: "start", region: inner}
	if err := checkTransition(m, start, []int{0, 1}, nil); err != nil {
		t.Fatalf("a start has no predecessor to check: %v", err)
	}
}

func TestTileChecksCatchBadPayloadAndRevalidation(t *testing.T) {
	tile := tilecache.Tile{Z: 1, X: 0, Y: 0}
	if err := checkTile(200, `"e"`, []byte("GST0junk"), tile, 25); err == nil {
		t.Error("undecodable payload not caught")
	}
	if err := checkTile(503, `"e"`, nil, tile, 25); err == nil {
		t.Error("non-200 tile not caught")
	}
	if err := checkRevalidation(200, `"e"`, `"e"`, tile); err == nil {
		t.Error("matching ETag answered 200 not caught")
	}
	if err := checkRevalidation(304, `"e"`, `"e"`, tile); err != nil {
		t.Errorf("valid revalidation rejected: %v", err)
	}
}

func TestIngestCheckCatchesSkippedEpoch(t *testing.T) {
	if err := checkIngest(ingestJSON{Version: 3, Updated: 16}, 3, 16); err != nil {
		t.Fatalf("valid epoch rejected: %v", err)
	}
	if err := checkIngest(ingestJSON{Version: 4, Updated: 16}, 3, 16); err == nil {
		t.Error("unexpected version not caught")
	}
	if err := checkIngest(ingestJSON{Version: 3, Updated: 15, Missed: 1}, 3, 16); err == nil {
		t.Error("missed update not caught")
	}
}

func TestModelTracksAcknowledgedEpochs(t *testing.T) {
	m := testModel()
	before := servedAs(m, 1)
	m.apply([]livestore.Mutation{{Op: livestore.OpUpdate, ID: 1, Loc: geo.Pt(0.3, 0.3), Weight: 0.9}})
	if err := checkSelection(m, lowerLeft, 3, 0.05, before); err == nil {
		t.Error("pre-epoch position not caught after the epoch was acknowledged")
	}
	if err := checkSelection(m, lowerLeft, 3, 0.05, servedAs(m, 1)); err != nil {
		t.Errorf("post-epoch position rejected: %v", err)
	}
}

func TestWorkloadSelfChecks(t *testing.T) {
	zero := cacheCounters{}
	if p := invalidationProblem(true, zero, zero, 5); !strings.Contains(p, "0 invalidations") {
		t.Errorf("epochs that dirtied visited tiles without invalidations not caught: %q", p)
	}
	if p := invalidationProblem(true, zero, cacheCounters{Invalidations: 2}, 5); p != "" {
		t.Errorf("invalidating run flagged: %q", p)
	}
	if p := invalidationProblem(false, zero, zero, 5); p != "" {
		t.Errorf("epochs outside the visited tiles flagged: %q", p)
	}
	if p := warmProblem(zero, cacheCounters{TileMisses: 1}); p == "" {
		t.Error("tile computed in the in-cache phase not caught")
	}
	if p := warmProblem(zero, cacheCounters{Evictions: 1}); p == "" {
		t.Error("eviction in the in-cache phase not caught")
	}
	if p := warmProblem(zero, cacheCounters{TileHits: 40}); p != "" {
		t.Errorf("all-hit phase flagged: %q", p)
	}
}
