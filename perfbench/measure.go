package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times an untraced run sets the server up; the
// median is reported as setup_s and the last set-up is measured.
const setupReps = 5

// measurement is one untraced run: set-up times, the measured phase,
// and the process's memory behaviour over it.
type measurement struct {
	w      *workload
	setups []float64
	phase  phaseResult
	// hygiene holds counter-hygiene failures read from /cache/stats.
	hygiene []string
	// heapMB is the live heap of the set-up server (dataset, index and
	// any prefilled cache); heapAfterMB the same after the measured
	// phase, which on churn grows with the epochs a run managed.
	heapMB, heapAfterMB float64
	// gcPauseMs and allocBytes are the process's GC pause and heap
	// allocation over the measured phase (server and clients share the
	// process).
	gcPauseMs  float64
	allocBytes uint64
	// scores are the exact scores of the scored selections, and
	// scoreRatios each one over a direct greedy run's score.
	scores, scoreRatios []float64
}

// served is the set-up a measured phase runs against.
type served struct {
	e       *env
	m       *model
	clients []*client
	writer  *client
}

// setUp starts a server, connects the clients and, where the workload
// has one, fills the tile cache by replaying every script once.
func setUp(w *workload, pl *plan, seed int64) (*served, error) {
	e, err := start(w, seed)
	if err != nil {
		return nil, err
	}
	m, err := newModel(e.col)
	if err != nil {
		e.stop()
		return nil, err
	}
	s := &served{e: e, m: m}
	for _, script := range pl.scripts {
		c, err := newClient(e, s.m, script)
		if err != nil {
			e.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	if w.live {
		s.writer = &client{e: e, m: s.m, p: w.p}
	}
	if w.prefill {
		if err := prefill(s.clients, pl.scripts); err != nil {
			e.stop()
			return nil, err
		}
	}
	return s, nil
}

func measure(w *workload, pl *plan, seed int64, d time.Duration, reps int) (*measurement, error) {
	m := &measurement{w: w}
	var s *served
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.e.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(w, pl, seed); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}

	m.heapMB = liveHeapMB()
	var before cacheCounters
	if w.tileCache {
		var err error
		if before, err = s.clients[0].cacheStats(); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if w.live {
		next := pl.churn.epochs(w.p.EpochSize, func(id int) string { return s.m.objs[id].Text })
		m.phase = runChurn(w, s.clients[0], s.writer, pl.churn, next, d)
	} else {
		m.phase = runClosedLoop(w, s.clients, pl.scripts, d)
	}
	runtime.ReadMemStats(&ms1)
	m.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if w.tileCache && !w.live {
		after, err := s.clients[0].cacheStats()
		if err != nil {
			m.hygiene = append(m.hygiene, fmt.Sprintf("reading /cache/stats: %v", err))
		} else if p := warmProblem(before, after); p != "" {
			m.hygiene = append(m.hygiene, p)
		}
	}
	var err error
	if m.scores, m.scoreRatios, err = m.phase.rec.scores(w.p.K); err != nil {
		return nil, err
	}
	m.phase.rec.scored = nil
	// The live heap is read once the server has stopped and the
	// sessions' cancelled prefetch goroutines have had time to return,
	// with the stopped server's store, index and cache still referenced.
	if err := s.e.stop(); err != nil {
		return nil, err
	}
	time.Sleep(100 * time.Millisecond)
	m.heapAfterMB = liveHeapMB()
	runtime.KeepAlive(s)
	return m, nil
}

// liveHeapMB collects twice — the first collection moves sync.Pool
// contents to the victim cache, the second frees them — and reads the
// heap that is still live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (m *measurement) problems() []string {
	return append(append([]string(nil), m.hygiene...), m.phase.problems...)
}

// completed counts the measured requests that succeeded.
func (m *measurement) completed() int { return m.phase.rec.attempted - m.phase.rec.failed }

// all merges every operation's latencies: the workload's request mix.
func (m *measurement) all() *latencies {
	var l latencies
	for i := range m.phase.rec.lat {
		l.merge(&m.phase.rec.lat[i])
	}
	return &l
}

func (m *measurement) endToEnd() map[string]metric {
	p50, p95, _ := m.all().summary()
	return map[string]metric{
		"setup_s":        {median(m.setups), "s"},
		"p50_ms":         {p50.Value, "ms"},
		"p95_ms":         {p95.Value, "ms"},
		"throughput_rps": {float64(m.completed()) / m.phase.wall.Seconds(), "req/s"},
		"score_ratio":    {mean(m.scoreRatios), "ratio"},
		"heap_mb":        {m.heapMB, "MB"},
	}
}

// report is the per-operation breakdown behind the end-to-end numbers:
// every timing with its sample count and the rank it was read at.
func (m *measurement) report(pl *plan) map[string]any {
	ops := map[string]any{}
	for op := opKind(0); op < numOps; op++ {
		l := &m.phase.rec.lat[op]
		if len(l.ms) == 0 {
			continue
		}
		p50, p95, p99 := l.summary()
		ops[op.String()] = map[string]any{
			"p50":        p50,
			"p95":        p95,
			"p99":        p99,
			"resp_bytes": float64(m.phase.rec.bytes[op]) / float64(len(l.ms)),
		}
	}
	for kind, l := range m.phase.rec.navLat {
		p50, p95, p99 := l.summary()
		ops["nav."+kind] = map[string]any{"p50": p50, "p95": p95, "p99": p99}
	}
	p50, p95, p99 := m.all().summary()
	return map[string]any{
		"setup_s":       m.setups,
		"wall_s":        m.phase.wall.Seconds(),
		"all":           map[string]any{"p50": p50, "p95": p95, "p99": p99},
		"ops":           ops,
		"epochs":        m.phase.epochs,
		"heap_after_mb": m.heapAfterMB,
		"scored":        len(m.scores),
		"score_mean":    mean(m.scores),
		"gc_pause_ms":   m.gcPauseMs,
		"alloc_mb":      float64(m.allocBytes) / (1 << 20),
		"failed_frac":   ratio(float64(m.phase.rec.failed), float64(m.phase.rec.attempted)),
		"attempted":     m.phase.rec.attempted,
		"first_failure": m.phase.rec.errs,
		"inputs":        pl.describe(),
	}
}
