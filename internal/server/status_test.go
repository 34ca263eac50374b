package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// corruptView appends to its collection an object with a NaN location
// and returns it from every region query: data no validated store can
// hold, so selecting over the view fails inside the engine.
type corruptView struct {
	geodata.View
	col *geodata.Collection
}

func (v corruptView) Collection() *geodata.Collection { return v.col }

func (v corruptView) Region(r geo.Rect) []int {
	return append(v.View.Region(r), len(v.col.Objects)-1)
}

type corruptSource struct{ view corruptView }

func (s corruptSource) Snapshot() (geodata.View, uint64) { return s.view, 0 }

func newCorruptSource(t *testing.T) corruptSource {
	t.Helper()
	store := testStore(t)
	objs := append([]geodata.Object(nil), store.Collection().Objects...)
	objs = append(objs, geodata.Object{ID: -1, Loc: geo.Pt(math.NaN(), math.NaN()), Weight: 1})
	return corruptSource{corruptView{View: store, col: &geodata.Collection{Objects: objs, Vocab: store.Collection().Vocab}}}
}

// TestHandlerErrorStatus pins the error-to-status mapping across the
// handlers: a server deadline is 504, a client that went away 503,
// invalid input 400 (checked before any selection runs), and a failure
// inside the selection path 500.
func TestHandlerErrorStatus(t *testing.T) {
	cfg := engine.Config{Metric: sim.Cosine{}}
	plain, err := New(testStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached := cfg
	cached.TileCache = true
	tiles, err := New(testStore(t), cached)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := New(newCorruptSource(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Session "1" exists, unstarted, on every server.
	for _, s := range []*Server{plain, tiles, corrupt} {
		t.Cleanup(s.Close)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(`{"k":5,"thetaFrac":0.003}`)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create session: status %d: %s", rec.Code, rec.Body)
		}
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()

	const sel = `{"region":{"minX":0.2,"minY":0.2,"maxX":0.8,"maxY":0.8},"k":8,"thetaFrac":0.003`
	const region = `{"region":{"minX":0.3,"minY":0.3,"maxX":0.6,"maxY":0.6}}`
	cases := []struct {
		name   string
		srv    *Server
		method string
		path   string
		body   string
		ctx    context.Context
		want   int
		msg    string // when set, the error body must contain it
	}{
		{"select past deadline", plain, "POST", "/select", sel + `}`, expired, http.StatusGatewayTimeout, ""},
		{"select client gone", plain, "POST", "/select", sel + `}`, cancelled, http.StatusServiceUnavailable, ""},
		{"cached select client gone", tiles, "POST", "/select", sel + `}`, cancelled, http.StatusServiceUnavailable, ""},
		{"start past deadline", plain, "POST", "/sessions/1/start", region, expired, http.StatusGatewayTimeout, ""},
		{"tile past deadline", tiles, "GET", "/tiles/3/2/2", "", expired, http.StatusGatewayTimeout, ""},

		{"select negative thetaFrac", plain, "POST", "/select", `{"region":{"minX":0,"minY":0,"maxX":1,"maxY":1},"k":8,"thetaFrac":-0.1}`, live, http.StatusBadRequest, ""},
		{"select unbounded region", plain, "POST", "/select", `{"region":{"minX":-1e308,"minY":0,"maxX":1e308,"maxY":1},"k":8}`, live, http.StatusBadRequest, ""},
		{"select sample", plain, "POST", "/select", sel + `,"sample":true}`, live, http.StatusBadRequest, "not wired"},
		{"cached select negative thetaFrac", tiles, "POST", "/select", `{"region":{"minX":0,"minY":0,"maxX":1,"maxY":1},"k":8,"thetaFrac":-1}`, live, http.StatusBadRequest, ""},
		{"zoomin before start", plain, "POST", "/sessions/1/zoomin", region, live, http.StatusBadRequest, ""},
		{"prefetch before start", plain, "POST", "/sessions/1/prefetch", `{}`, live, http.StatusBadRequest, ""},
		{"start degenerate region", plain, "POST", "/sessions/1/start", `{"region":{"minX":0.3,"minY":0.3,"maxX":0.3,"maxY":0.6}}`, live, http.StatusBadRequest, ""},
		{"tile NaN theta", tiles, "GET", "/tiles/2/0/0?theta=NaN", "", live, http.StatusBadRequest, ""},
		{"tile infinite thetaFrac", tiles, "GET", "/tiles/2/0/0?thetaFrac=Inf", "", live, http.StatusBadRequest, ""},
		{"tile negative k", tiles, "GET", "/tiles/2/0/0?k=-3", "", live, http.StatusBadRequest, ""},

		{"select internal failure", corrupt, "POST", "/select", sel + `}`, live, http.StatusInternalServerError, ""},
		{"start internal failure", corrupt, "POST", "/sessions/1/start", region, live, http.StatusInternalServerError, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)).WithContext(c.ctx)
			rec := httptest.NewRecorder()
			c.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.want, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), c.msg) {
				t.Fatalf("body %s does not mention %q", rec.Body, c.msg)
			}
		})
	}
}
