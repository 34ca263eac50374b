package main

import (
	"fmt"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// model is the benchmark's own picture of the store: every object's
// position and weight after the last acknowledged epoch, indexed by ID.
// The generator numbers objects by position, so on a static store an
// ID is also the object's collection position.
type model struct {
	objs []geodata.Object
}

func newModel(col *geodata.Collection) (*model, error) {
	m := &model{objs: append([]geodata.Object(nil), col.Objects...)}
	for i, o := range m.objs {
		if o.ID != i {
			return nil, fmt.Errorf("generated object %d has ID %d, want IDs equal to positions", i, o.ID)
		}
	}
	return m, nil
}

// apply folds one acknowledged epoch into the model, in batch order.
func (m *model) apply(muts []livestore.Mutation) {
	for _, mu := range muts {
		o := &m.objs[mu.ID]
		o.Loc, o.Weight = mu.Loc, mu.Weight
	}
}

func (m *model) locate(id int) geo.Point { return m.objs[id].Loc }

// region returns the objects inside r under the model, and each one's
// index in that slice by ID — the input for an exact off-clock score.
func (m *model) region(r geo.Rect) ([]geodata.Object, map[int]int) {
	var objs []geodata.Object
	at := make(map[int]int)
	for _, o := range m.objs {
		if r.Contains(o.Loc) {
			at[o.ID] = len(objs)
			objs = append(objs, o)
		}
	}
	return objs, at
}

// objectJSON and selectionJSON mirror the server's response bodies.
type objectJSON struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text"`
}

type selectionJSON struct {
	Objects       []objectJSON `json:"objects"`
	Score         float64      `json:"score"`
	RegionObjects int          `json:"regionObjects"`
	Prefetched    bool         `json:"prefetched"`
	ResponseMs    float64      `json:"responseMs"`
	Warm          bool         `json:"warm"`
	ScoreApprox   bool         `json:"scoreApprox"`
}

type ingestJSON struct {
	Version  uint64 `json:"version"`
	Inserted int    `json:"inserted"`
	Updated  int    `json:"updated"`
	Deleted  int    `json:"deleted"`
	Missed   int    `json:"missed"`
}

// checkSelection verifies one served selection: at most k objects, each
// one where the model says it is (on churn, a stale tile shows up here),
// all inside the region, and every pair at least θ apart.
func checkSelection(m *model, region geo.Rect, k int, theta float64, objs []objectJSON) error {
	if len(objs) > k {
		return fmt.Errorf("selection has %d objects, k = %d", len(objs), k)
	}
	for _, o := range objs {
		if o.ID < 0 || o.ID >= len(m.objs) {
			return fmt.Errorf("object id %d unknown", o.ID)
		}
		want := m.objs[o.ID]
		if o.X != want.Loc.X || o.Y != want.Loc.Y || o.Weight != want.Weight {
			return fmt.Errorf("object %d served at (%v, %v) weight %v, model has %v weight %v",
				o.ID, o.X, o.Y, o.Weight, want.Loc, want.Weight)
		}
		if !region.Contains(geo.Pt(o.X, o.Y)) {
			return fmt.Errorf("object %d at (%v, %v) outside region %v", o.ID, o.X, o.Y, region)
		}
	}
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			a, b := geo.Pt(objs[i].X, objs[i].Y), geo.Pt(objs[j].X, objs[j].Y)
			if d := a.Dist(b); d < theta {
				return fmt.Errorf("objects %d and %d are %v apart, θ = %v", objs[i].ID, objs[j].ID, d, theta)
			}
		}
	}
	return nil
}

// checkTransition verifies a session step against the previous visible
// set with the library's own consistency validator.
func checkTransition(m *model, req request, prevVisible []int, objs []objectJSON) error {
	op, ok := map[string]geo.Op{"zoomin": geo.OpZoomIn, "zoomout": geo.OpZoomOut, "pan": geo.OpPan}[req.nav]
	if !ok {
		return nil // a start has no predecessor
	}
	return isos.CheckTransition(op, req.prev, req.region, prevVisible, ids(objs), m.locate)
}

func ids(objs []objectJSON) []int {
	out := make([]int, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}

// checkTile verifies a full /tiles response: 200, an ETag, a body that
// decodes as the requested tile with at most k members.
func checkTile(status int, etag string, body []byte, t tilecache.Tile, k int) error {
	if status != 200 {
		return fmt.Errorf("tile %v: status %d", t, status)
	}
	if etag == "" {
		return fmt.Errorf("tile %v: no ETag", t)
	}
	d, err := tilecache.DecodeTile(body)
	if err != nil {
		return fmt.Errorf("tile %v: %w", t, err)
	}
	if d.Tile != t {
		return fmt.Errorf("tile %v: payload is tile %v", t, d.Tile)
	}
	if len(d.Members) > k {
		return fmt.Errorf("tile %v: %d members, k = %d", t, len(d.Members), k)
	}
	return nil
}

// checkRevalidation verifies that a conditional fetch with a current
// ETag answers 304 and repeats the ETag.
func checkRevalidation(status int, etag, sent string, t tilecache.Tile) error {
	if status != 304 {
		return fmt.Errorf("tile %v: If-None-Match %s answered %d, want 304", t, sent, status)
	}
	if etag != sent {
		return fmt.Errorf("tile %v: 304 carries ETag %s, sent %s", t, etag, sent)
	}
	return nil
}

// checkIngest verifies that an epoch committed every update as the next
// version.
func checkIngest(got ingestJSON, wantVersion uint64, updates int) error {
	if got.Version != wantVersion {
		return fmt.Errorf("ingest committed version %d, want %d", got.Version, wantVersion)
	}
	if got.Updated != updates || got.Missed != 0 || got.Inserted != 0 || got.Deleted != 0 {
		return fmt.Errorf("ingest outcome %+v, want %d updates", got, updates)
	}
	return nil
}
