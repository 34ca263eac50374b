package isos

// Warmer integration: a session configured with the tile cache serves
// navigations warm while honoring exactly the same D/G consistency
// contract CheckTransition enforces on the ordinary path.

import (
	"context"
	"fmt"
	"testing"

	"geosel/internal/core"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/tilecache"
)

func TestSessionWarmNavigationConsistency(t *testing.T) {
	store := testStore(t, 4000, 9)
	cfg := testConfig(t)
	cfg.ThetaFrac = 0.003 // keep seam conflicts inside the repair budget
	cache, err := tilecache.New(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmer = cache
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
	start, err := s.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Collection().Objects
	if !core.SatisfiesVisibility(objs, start.Positions, s.theta(region)) {
		t.Fatal("start selection violates θ-separation")
	}

	oldVisible := s.Visible()
	inner := geo.RectAround(geo.Pt(0.5, 0.5), 0.08)
	sel, err := s.ZoomIn(ctx, inner)
	if err != nil {
		t.Fatal(err)
	}
	// Warm or not, the transition contract must hold; a warm serve that
	// broke D/G would fail here.
	if err := CheckTransition(geo.OpZoomIn, region, inner, oldVisible, sel.Positions, locOf(store)); err != nil {
		t.Fatal(err)
	}
	if !core.SatisfiesVisibility(objs, sel.Positions, s.theta(inner)) {
		t.Fatal("zoom-in selection violates θ-separation")
	}

	// At least one navigation in a repeated walk must come out warm,
	// or the hook is dead code. The start visits warmed the tiles, so
	// re-walking the same viewports hits the cache.
	warm := start.Warm || sel.Warm
	for i := 0; i < 3 && !warm; i++ {
		outer := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
		selOut, err := s.ZoomOut(ctx, outer)
		if err != nil {
			t.Fatal(err)
		}
		warm = selOut.Warm
		selIn, err := s.ZoomIn(ctx, inner)
		if err != nil {
			t.Fatal(err)
		}
		warm = warm || selIn.Warm
	}
	if !warm {
		t.Error("no navigation was served warm; the Warmer hook never fired")
	}
	if st := cache.Stats(); st.WarmNavigations == 0 {
		t.Errorf("cache recorded no warm navigations: %+v", st)
	}
}

// decliningWarmer always says no — the hook's worst case.
type decliningWarmer struct{ calls int }

func (d *decliningWarmer) WarmNavigate(context.Context, geodata.View, uint64, geo.Rect, int, float64, []int, []int) ([]int, float64, int, bool) {
	d.calls++
	return nil, 0, 0, false
}

// TestSessionWarmDeclineFallsThrough proves declining is safe: a
// Warmer that rejects every navigation leaves the session on its
// ordinary selection path with full consistency.
func TestSessionWarmDeclineFallsThrough(t *testing.T) {
	store := testStore(t, 2000, 10)
	cfg := testConfig(t)
	warmer := &decliningWarmer{}
	cfg.Warmer = warmer
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	sel, err := s.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	if warmer.calls == 0 {
		t.Fatal("the Warmer hook was never consulted")
	}
	if sel.Warm {
		t.Fatal("a declined navigation must not be marked warm")
	}
	if len(sel.Positions) == 0 {
		t.Fatal("declined warm serve left no selection")
	}
	if !core.SatisfiesVisibility(store.Collection().Objects, sel.Positions, s.theta(region)) {
		t.Fatal("fallthrough selection violates θ-separation")
	}
}

// switchWarmer forwards to a tile cache unless decline is set, so a
// test chooses which navigations take the greedy path.
type switchWarmer struct {
	cache   *tilecache.Cache
	decline bool
}

func (w *switchWarmer) WarmNavigate(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, forced, candidates []int) ([]int, float64, int, bool) {
	if w.decline {
		return nil, 0, 0, false
	}
	return w.cache.WarmNavigate(ctx, view, version, region, k, theta, forced, candidates)
}

// TestSessionWarmSkipsAsyncPrefetch pins when a tile-cache-backed
// session prefetches in the background: a warm navigation leaves no
// job (no greedy would read its bounds), a navigation the warmer
// declines runs the greedy and spawns one, and the walk selects exactly
// the positions of the same walk with AsyncPrefetch off.
func TestSessionWarmSkipsAsyncPrefetch(t *testing.T) {
	store := testStore(t, 4000, 9)
	newSession := func(async bool) (*Session, *switchWarmer) {
		cfg := testConfig(t)
		cfg.ThetaFrac = 0.003
		cfg.AsyncPrefetch = async
		cache, err := tilecache.New(cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		w := &switchWarmer{cache: cache}
		cfg.Warmer = w
		s, err := NewSession(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, w
	}
	on, onWarmer := newSession(true)
	off, offWarmer := newSession(false)
	ctx := context.Background()

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
	inner := geo.RectAround(geo.Pt(0.5, 0.5), 0.08)
	type step struct {
		decline bool
		nav     func(s *Session) (*Selection, error)
	}
	start := func(s *Session) (*Selection, error) { return s.Start(ctx, region) }
	zoomIn := func(s *Session) (*Selection, error) { return s.ZoomIn(ctx, inner) }
	zoomOut := func(s *Session) (*Selection, error) { return s.ZoomOut(ctx, region) }
	pan := func(s *Session) (*Selection, error) { return s.Pan(ctx, geo.Pt(0.02, -0.01)) }
	// The first pass fills the caches; the rest alternate warm serves
	// with declined, greedy ones, including two declined steps in a row
	// so a greedy run adopts finished background bounds.
	walk := []step{
		{false, start}, {false, zoomIn}, {false, zoomOut},
		{false, start}, {false, zoomIn}, {true, zoomOut}, {true, zoomIn},
		{false, zoomOut}, {true, pan}, {false, start}, {false, zoomIn},
	}
	var warm, declined, prefetched int
	for i, st := range walk {
		onWarmer.decline, offWarmer.decline = st.decline, st.decline
		got, err := st.nav(on)
		if err != nil {
			t.Fatalf("step %d (AsyncPrefetch on): %v", i, err)
		}
		want, err := st.nav(off)
		if err != nil {
			t.Fatalf("step %d (AsyncPrefetch off): %v", i, err)
		}
		if fmt.Sprint(got.Positions) != fmt.Sprint(want.Positions) {
			t.Fatalf("step %d: positions %v with AsyncPrefetch, %v without", i, got.Positions, want.Positions)
		}
		if got.Warm != want.Warm {
			t.Fatalf("step %d: warm %v with AsyncPrefetch, %v without", i, got.Warm, want.Warm)
		}
		switch {
		case got.Warm:
			warm++
			if on.job != nil {
				t.Fatalf("step %d: warm navigation left a background prefetch job", i)
			}
		default:
			if st.decline {
				declined++
			}
			if got.Prefetched {
				prefetched++
			}
			if on.job == nil {
				t.Fatalf("step %d: greedy navigation spawned no background prefetch job", i)
			}
			// Let the job finish so the next greedy run adopts its
			// bounds deterministically.
			<-on.job.done
		}
	}
	if warm == 0 || declined == 0 || prefetched == 0 {
		t.Fatalf("walk exercised %d warm, %d declined and %d prefetched navigations; want each > 0", warm, declined, prefetched)
	}
}
