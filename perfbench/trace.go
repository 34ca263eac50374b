package main

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/tilecache"
)

// span is one traced call into a layer's public function. Spans of one
// request share req; parent is -1 for a request's root span and for
// background work that no foreground call is waiting on.
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are summarized when the replay
// ends. Recording is off while the replay sets up and prefills.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// cursor is one replay client's position in its own span tree: the
// request in flight, the stack of layer calls it is inside, and the
// goroutine that makes them.
type cursor struct {
	req   int
	stack []int
	gid   uint64
}

// goroutineID reads the calling goroutine's id from its stack header.
// The tracer uses it only to tell a replay client's own view calls from
// those of background goroutines the layers start, such as a session's
// prefetch, which hold the same views.
func goroutineID() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// begin opens a span under the cursor's innermost open span; a span
// opened with nothing open is a request's root and starts a new request.
func (t *tracer) begin(c *cursor, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	} else {
		c.req = t.reqs
		c.gid = goroutineID()
		t.reqs++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: c.req, Name: name, Start: t.now()})
	c.stack = append(c.stack, id)
	return id
}

func (t *tracer) end(c *cursor, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	c.stack = c.stack[:len(c.stack)-1]
}

// call runs f inside a span named name.
func (t *tracer) call(c *cursor, name string, f func()) {
	id := t.begin(c, name)
	f()
	t.end(c, id)
}

// leaf records a finished view call. A call the replay client made
// itself is a child of its innermost span open both when the call
// started and when it ended; a call from any other goroutine is
// background work.
func (t *tracer) leaf(c *cursor, gid uint64, name string, start time.Duration, parentAtStart int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	parent, req := -1, -1
	if gid == c.gid && parentAtStart >= 0 && t.spans[parentAtStart].End == 0 {
		parent, req = parentAtStart, c.req
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
}

func (t *tracer) top(c *cursor) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(c.stack); n > 0 {
		return c.stack[n-1]
	}
	return -1
}

// tracedSource wraps a store so every view it hands out records its
// region queries. The store's own capabilities — a live snapshot's
// dirty-cell history and position liveness — stay visible through the
// wrapper, because the tile cache and sessions type-assert for them.
type tracedSource struct {
	src geodata.Source
	tr  *tracer
	cur *cursor
}

func (s *tracedSource) Snapshot() (geodata.View, uint64) {
	v, ver := s.src.Snapshot()
	tv := &tracedView{View: v, tr: s.tr, cur: s.cur}
	if lv, ok := v.(liveView); ok {
		return &tracedLiveView{tracedView: tv, live: lv}, ver
	}
	return tv, ver
}

// liveView is what a livestore snapshot offers beyond geodata.View.
type liveView interface {
	tilecache.DirtyView
	LivePos(pos int) bool
}

type tracedView struct {
	geodata.View
	tr  *tracer
	cur *cursor
}

func (v *tracedView) Region(r geo.Rect) []int {
	gid := goroutineID()
	parent, start := v.tr.top(v.cur), v.tr.now()
	out := v.View.Region(r)
	name := "geodata.Region"
	if isTileRect(r) {
		// A tile fill's own query, inside the cache's cold compute time.
		name = "geodata.Region.tile"
	}
	v.tr.leaf(v.cur, gid, name, start, parent)
	return out
}

func (v *tracedView) CountRegion(r geo.Rect) int {
	gid := goroutineID()
	parent, start := v.tr.top(v.cur), v.tr.now()
	n := v.View.CountRegion(r)
	v.tr.leaf(v.cur, gid, "geodata.CountRegion", start, parent)
	return n
}

type tracedLiveView struct {
	*tracedView
	live liveView
}

func (v *tracedLiveView) DirtyCells(since uint64, dst []geo.Rect) ([]geo.Rect, bool) {
	return v.live.DirtyCells(since, dst)
}

func (v *tracedLiveView) LivePos(pos int) bool { return v.live.LivePos(pos) }

// isTileRect reports whether r is exactly one pyramid tile, the query a
// tile fill makes.
func isTileRect(r geo.Rect) bool {
	z := int32(math.Round(-math.Log2(r.Width())))
	if z < 0 || z > 24 {
		return false
	}
	s := tilecache.Side(z)
	t := tilecache.Tile{Z: z, X: int32(math.Floor(r.Min.X / s)), Y: int32(math.Floor(r.Min.Y / s))}
	return t.Rect() == r
}
