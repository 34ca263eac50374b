package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/server"
	"geosel/internal/sim"
)

// serverConfig is the geoselserver default configuration (cosine
// metric, all CPUs, async prefetch, 10 s request deadline), with the
// tile cache switched on for the workloads that use it.
func serverConfig(w *workload) engine.Config {
	return engine.Config{
		Metric:         sim.Cosine{},
		Parallelism:    0,
		AsyncPrefetch:  true,
		RequestTimeout: 10 * time.Second,
		TileCache:      w.tileCache,
	}
}

func generate(w *workload, seed int64) (*geodata.Collection, error) {
	return dataset.Generate(dataset.POISpec(w.p.N, seed))
}

// env is one running server and the client that talks to it.
type env struct {
	w      *workload
	col    *geodata.Collection
	source geodata.Source
	live   *livestore.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	http   *http.Client
}

// start generates the dataset, builds the store (static R-tree or live
// COW grid), and serves the real server.Handler on a loopback port.
func start(w *workload, seed int64) (*env, error) {
	col, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, col: col}
	cfg := serverConfig(w)
	if w.live {
		e.live, err = livestore.New(col, cfg)
		e.source = e.live
	} else {
		e.source, err = geodata.NewStore(col)
	}
	if err != nil {
		return nil, err
	}
	if e.srv, err = server.New(e.source, cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.tr = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	e.http = &http.Client{Transport: e.tr, Timeout: 60 * time.Second}
	return e, nil
}

// stop drains the listener, waits for the serve loop to return and
// cancels the sessions' background prefetch.
func (e *env) stop() error {
	e.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.srv.Close()
	if err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	return nil
}
