package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/sim"
	"geosel/internal/tilecache"
)

// client is one closed-loop user: it sends a request, reads the whole
// response, checks it off the clock, and only then sends the next.
type client struct {
	e       *env
	m       *model
	p       params
	session string
	// visible is the session's visible set after its last navigation.
	visible []int
	// etags holds the ETag of each tile's last full fetch.
	etags map[tilecache.Tile]string
}

// newClient connects one client. A script that navigates without
// managing sessions itself gets one long-lived session, created here
// and not measured.
func newClient(e *env, m *model, script []request) (*client, error) {
	c := &client{e: e, m: m, p: e.w.p, etags: make(map[tilecache.Tile]string)}
	navigates, manages := false, false
	for _, r := range script {
		navigates = navigates || r.op == opNav
		manages = manages || r.op == opSession
	}
	if navigates && !manages {
		if res := c.doSession(request{op: opSession, nav: "create"}); res.err != nil {
			return nil, res.err
		}
	}
	return c, nil
}

// result is one request's outcome as the client saw it.
type result struct {
	op    opKind
	dur   time.Duration
	bytes int
	err   error
	// objs is the served selection and theta its visibility threshold,
	// for scoring.
	objs  []objectJSON
	theta float64
	// nav is the navigation kind of an opNav request.
	nav string
}

// roundTrip sends one request and reads the whole body; dur covers
// sending the request through reading the last body byte.
func (c *client) roundTrip(method, path string, body []byte, ifNoneMatch string) (status int, etag string, resp []byte, dur time.Duration, err error) {
	req, err := http.NewRequest(method, c.e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	t0 := time.Now()
	r, err := c.e.http.Do(req)
	if err != nil {
		return 0, "", nil, time.Since(t0), err
	}
	resp, err = io.ReadAll(r.Body)
	dur = time.Since(t0)
	r.Body.Close()
	return r.StatusCode, r.Header.Get("ETag"), resp, dur, err
}

func rectBody(r geo.Rect) map[string]float64 {
	return map[string]float64{"minX": r.Min.X, "minY": r.Min.Y, "maxX": r.Max.X, "maxY": r.Max.Y}
}

// do sends one scripted request and checks the response.
func (c *client) do(req request) result {
	switch req.op {
	case opSelect:
		return c.doSelect(req)
	case opTile:
		return c.doTile(req)
	case opNav:
		return c.doNav(req)
	case opSession:
		return c.doSession(req)
	}
	return result{op: req.op, err: fmt.Errorf("op %v is not scripted", req.op)}
}

func (c *client) doSelect(req request) result {
	body, _ := json.Marshal(map[string]any{"region": rectBody(req.region), "k": c.p.K, "thetaFrac": c.p.ThetaFrac})
	status, _, resp, dur, err := c.roundTrip(http.MethodPost, "/select", body, "")
	res := result{op: opSelect, dur: dur, bytes: len(resp), err: err}
	if err != nil {
		return res
	}
	var sel selectionJSON
	if res.err = decodeOK(status, resp, &sel); res.err != nil {
		return res
	}
	res.objs, res.theta = sel.Objects, c.p.ThetaFrac*req.region.Width()
	res.err = checkSelection(c.m, req.region, c.p.K, res.theta, sel.Objects)
	return res
}

func (c *client) doTile(req request) result {
	t := req.tile
	path := fmt.Sprintf("/tiles/%d/%d/%d?k=%d&thetaFrac=%s", t.Z, t.X, t.Y, c.p.K, strconv.FormatFloat(c.p.ThetaFrac, 'g', -1, 64))
	sent := ""
	if req.cond {
		sent = c.etags[t]
		if sent == "" {
			return result{op: opTile, err: fmt.Errorf("tile %v: revalidation before any full fetch", t)}
		}
	}
	status, etag, resp, dur, err := c.roundTrip(http.MethodGet, path, nil, sent)
	res := result{op: opTile, dur: dur, bytes: len(resp), err: err}
	if err != nil {
		return res
	}
	if req.cond {
		res.err = checkRevalidation(status, etag, sent, t)
		return res
	}
	if res.err = checkTile(status, etag, resp, t, c.p.K); res.err == nil {
		c.etags[t] = etag
	}
	return res
}

func (c *client) doNav(req request) result {
	var body []byte
	if req.nav == "pan" {
		body, _ = json.Marshal(map[string]float64{"dx": req.delta.X, "dy": req.delta.Y})
	} else {
		body, _ = json.Marshal(map[string]any{"region": rectBody(req.region)})
	}
	status, _, resp, dur, err := c.roundTrip(http.MethodPost, "/sessions/"+c.session+"/"+req.nav, body, "")
	res := result{op: opNav, nav: req.nav, dur: dur, bytes: len(resp), err: err}
	if err != nil {
		return res
	}
	var sel selectionJSON
	if res.err = decodeOK(status, resp, &sel); res.err != nil {
		return res
	}
	res.objs, res.theta = sel.Objects, c.p.ThetaFrac*max(req.region.Width(), req.region.Height())
	if res.err = checkSelection(c.m, req.region, c.p.K, res.theta, sel.Objects); res.err == nil {
		res.err = checkTransition(c.m, req, c.visible, sel.Objects)
	}
	c.visible = ids(sel.Objects)
	return res
}

// doSession creates the client's session or deletes it.
func (c *client) doSession(req request) result {
	if req.nav == "delete" {
		status, _, resp, dur, err := c.roundTrip(http.MethodDelete, "/sessions/"+c.session, nil, "")
		if err == nil && status != http.StatusNoContent {
			err = fmt.Errorf("delete session: status %d", status)
		}
		c.session = ""
		return result{op: opSession, dur: dur, bytes: len(resp), err: err}
	}
	body, _ := json.Marshal(map[string]any{"k": c.p.K, "thetaFrac": c.p.ThetaFrac})
	status, _, resp, dur, err := c.roundTrip(http.MethodPost, "/sessions", body, "")
	res := result{op: opSession, dur: dur, bytes: len(resp), err: err}
	if err != nil {
		return res
	}
	var out struct {
		SessionID string `json:"sessionId"`
	}
	if status != http.StatusCreated {
		res.err = fmt.Errorf("create session: status %d", status)
	} else if res.err = json.Unmarshal(resp, &out); res.err == nil && out.SessionID == "" {
		res.err = fmt.Errorf("create session: no id")
	}
	c.session = out.SessionID
	return res
}

// ingest posts one epoch and checks it was committed as wantVersion.
func (c *client) ingest(muts []livestore.Mutation, wantVersion uint64) result {
	type mutJSON struct {
		Op     string  `json:"op"`
		ID     int     `json:"id"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Weight float64 `json:"weight"`
		Text   string  `json:"text,omitempty"`
	}
	ms := make([]mutJSON, len(muts))
	for i, m := range muts {
		ms[i] = mutJSON{Op: m.Op.String(), ID: m.ID, X: m.Loc.X, Y: m.Loc.Y, Weight: m.Weight, Text: m.Text}
	}
	body, _ := json.Marshal(map[string]any{"mutations": ms})
	status, _, resp, dur, err := c.roundTrip(http.MethodPost, "/ingest", body, "")
	res := result{op: opIngest, dur: dur, bytes: len(resp), err: err}
	if err != nil {
		return res
	}
	var got ingestJSON
	if res.err = decodeOK(status, resp, &got); res.err == nil {
		res.err = checkIngest(got, wantVersion, len(muts))
	}
	return res
}

// decodeOK fails non-2xx statuses and undecodable bodies.
func decodeOK(status int, body []byte, dst any) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, dst)
}

// cacheStats reads the server's tile-cache counters over HTTP.
func (c *client) cacheStats() (cacheCounters, error) {
	var st cacheCounters
	status, _, resp, _, err := c.roundTrip(http.MethodGet, "/cache/stats", nil, "")
	if err == nil {
		err = decodeOK(status, resp, &st)
	}
	return st, err
}

// cacheCounters is the subset of GET /cache/stats the checks read.
type cacheCounters struct {
	TileHits      uint64 `json:"tileHits"`
	TileMisses    uint64 `json:"tileMisses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// recorder accumulates one client's measured requests.
type recorder struct {
	lat       [numOps]latencies
	navLat    map[string]*latencies // by navigation kind
	bytes     [numOps]int64
	attempted int
	failed    int
	errs      []string
	scored    []scoreJob
}

func (r *recorder) record(res result) {
	r.attempted++
	if res.err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%v: %v", res.op, res.err))
		}
		return
	}
	r.lat[res.op].add(res.dur)
	r.bytes[res.op] += int64(res.bytes)
	if res.op == opNav {
		r.nav(res.nav).add(res.dur)
	}
}

func (r *recorder) nav(kind string) *latencies {
	if r.navLat == nil {
		r.navLat = map[string]*latencies{}
	}
	if r.navLat[kind] == nil {
		r.navLat[kind] = &latencies{}
	}
	return r.navLat[kind]
}

func (r *recorder) merge(o *recorder) {
	for i := range r.lat {
		r.lat[i].merge(&o.lat[i])
		r.bytes[i] += o.bytes[i]
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	r.scored = append(r.scored, o.scored...)
	for kind, l := range o.navLat {
		r.nav(kind).merge(l)
	}
}

// scoreJob is a served selection kept for scoring after the measured
// phase: the region's objects as the model had them when it was served,
// and the selected ones among them.
type scoreJob struct {
	objs  []geodata.Object
	sel   []int
	theta float64
}

// keep records a served selection for off-clock scoring.
func (r *recorder) keep(m *model, region geo.Rect, theta float64, objs []objectJSON) {
	in, at := m.region(region)
	sel := make([]int, 0, len(objs))
	for _, o := range objs {
		if i, ok := at[o.ID]; ok {
			sel = append(sel, i)
		}
	}
	r.scored = append(r.scored, scoreJob{objs: in, sel: sel, theta: theta})
}

// scores returns, per kept selection, its exact representative score
// Sim(O, S) (paper Eq. 2) and that score over the score of a direct
// greedy run on the same objects with the same k and θ.
func (r *recorder) scores(k int) (score, ratio []float64, err error) {
	for _, j := range r.scored {
		served := exactScore(j.objs, j.sel)
		cfg := engine.Config{Metric: sim.Cosine{}, K: k, Theta: j.theta, Parallelism: 1}
		res, err := (&core.Selector{Config: cfg, Objects: j.objs}).Run(context.Background())
		if err != nil {
			return nil, nil, err
		}
		score = append(score, served)
		if direct := exactScore(j.objs, res.Selected); direct > 0 {
			ratio = append(ratio, served/direct)
		}
	}
	return score, ratio, nil
}

func exactScore(objs []geodata.Object, sel []int) float64 {
	return core.Score(objs, sel, sim.Cosine{}, engine.AggMax)
}
