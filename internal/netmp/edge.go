package netmp

// Edge cache tier. An EdgeServer speaks the same minimal HTTP/1.1 range
// protocol as the origin ChunkServer, but serves chunk bodies out of a
// shared cache.Cache and proxies misses to the ranked origin set through
// a pool of supervised Fetchers — so every origin fill rides the
// breaker/failover/hedge machinery the clients already exercise. Each
// 206 response carries an "X-MPDash-Cache: hit|miss" header, the hint
// the client-side scheduler folds into its engage and hedge decisions
// (see cachehint.go).
//
// Misses are filled whole-chunk: an MP-DASH client splits a chunk into
// disjoint range requests across two paths, and the cache's singleflight
// collapses all of them (plus every concurrent session's) into a single
// origin fetch. The fill transfers and verifies real payload bytes from
// the origin — paying the true origin cost — and then reconstructs the
// deterministic body for the store.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// EdgePolicy configures an EdgeServer. The zero value selects the
// defaults noted on each field.
type EdgePolicy struct {
	// RateMbps shapes the edge's client-facing downlink (the path
	// bottleneck the edge now fronts); non-positive = unshaped.
	RateMbps float64
	// FillFetchers is the pool of supervised origin fetchers, bounding
	// concurrent distinct-chunk fills. Default 2.
	FillFetchers int
	// FillWindow is the deadline window handed to each whole-chunk
	// origin fill. Default 15s.
	FillWindow time.Duration
	// Retry bounds the fill fetchers' request supervision; their
	// breakers and hedging run at the package defaults.
	Retry RetryPolicy
}

func (p EdgePolicy) withDefaults() EdgePolicy {
	if p.FillFetchers <= 0 {
		p.FillFetchers = 2
	}
	if p.FillWindow <= 0 {
		p.FillWindow = 15 * time.Second
	}
	return p
}

// EdgeServer is one cache-tier server: a front (see front.go) whose body
// source is a shared chunk store, filled on a miss by a fetcher pool
// toward the ranked origins. Store, pool and fill context belong to the
// edge, not to a listener generation: they survive Crash/Restart, and a
// fill outlives the connection that asked for it — only Close cancels it.
type EdgeServer struct {
	*front

	name  string // cache key namespace (the video's catalog identity)
	pol   EdgePolicy
	store *cache.Cache

	origins []string      // ranked; every fill fetcher dials through all of them
	pool    chan *Fetcher // fill fetchers; a fill holds one for its duration

	fillCtx     context.Context
	cancelFills context.CancelFunc

	originBytes atomic.Int64
	fillErrs    atomic.Int64
}

// NewEdgeServer starts an edge on a loopback port, fronting origins for
// video. name namespaces the video's keys in the shared store (two
// videos with the same name share entries, which is the point of a
// shared cache tier). The origin list is ranked: the fill fetchers
// apply breaker-driven failover across it.
func NewEdgeServer(video *dash.Video, name string, origins []string, store *cache.Cache, pol EdgePolicy) (*EdgeServer, error) {
	if store == nil {
		return nil, errors.New("netmp: edge needs a cache store")
	}
	if len(origins) == 0 {
		return nil, errors.New("netmp: edge needs at least one origin")
	}
	pol = pol.withDefaults()
	e := &EdgeServer{
		name:    name,
		pol:     pol,
		store:   store,
		origins: origins,
		pool:    make(chan *Fetcher, pol.FillFetchers),
	}
	e.fillCtx, e.cancelFills = context.WithCancel(context.Background())
	var err error
	if e.front, err = listenFront(video, pol.RateMbps, e); err != nil {
		return nil, err
	}
	// The listener is up already; a request that beats the pool waits for it.
	for i := 0; i < pol.FillFetchers; i++ {
		f, err := e.dialFetcher()
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("netmp: edge fill fetcher: %w", err)
		}
		e.pool <- f
	}
	return e, nil
}

// dialFetcher builds one fill fetcher: a single connection through the
// ranked origins. A fill is one whole chunk from one tier — no costlier
// path to hold back, so no worker goroutine either.
func (e *EdgeServer) dialFetcher() (*Fetcher, error) {
	f, err := NewFetcherOrigins(e.Video, BreakerPolicy{}, e.origins)
	if err != nil {
		return nil, err
	}
	f.Retry = e.pol.Retry
	return f, nil
}

// OriginBytes returns the payload bytes pulled from origins by misses —
// the denominator's complement of the origin-offload ratio.
func (e *EdgeServer) OriginBytes() int64 { return e.originBytes.Load() }

// FillErrors returns how many fills failed outright (clients got a 503).
func (e *EdgeServer) FillErrors() int64 { return e.fillErrs.Load() }

// Instrument wires the edge to t: the front's collectors and events,
// plus scrape-time collectors over the edge's byte counters and journal
// events for fill failures. The shared store is instrumented separately
// (once, not per edge).
func (e *EdgeServer) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	e.front.instrument(t)
	r := t.Registry
	lbl := obs.Labels{"edge": e.addr}
	r.CounterFunc("cache_edge_served_bytes_total",
		"Payload bytes served to clients by this edge.",
		lbl, func() float64 { return float64(e.ServedBytes()) })
	r.CounterFunc("cache_edge_origin_bytes_total",
		"Payload bytes pulled from origins by this edge's misses.",
		lbl, func() float64 { return float64(e.OriginBytes()) })
	r.CounterFunc("cache_edge_fill_errors_total",
		"Origin fills that failed outright (clients got a 503).",
		lbl, func() float64 { return float64(e.FillErrors()) })
}

// Close stops the edge: pending fills, the front, then the fill
// fetchers (every handler has returned its fetcher by then).
func (e *EdgeServer) Close() error {
	e.cancelFills()
	err := errors.Join(e.front.Close(), e.closeFetchers())
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	return err
}

// closeFetchers runs once every fill has returned its fetcher.
func (e *EdgeServer) closeFetchers() error {
	var errs []error
	for len(e.pool) > 0 {
		errs = append(errs, (<-e.pool).Close())
	}
	return errors.Join(errs...)
}

// chunk is the edge's body source: (index, level)'s whole body via the
// shared store, filling from origin on a miss (singleflight-collapsed
// across every concurrent request for the key, this edge's and its
// siblings' alike), and whether it was a hit. The store is shared and
// caller-provided, so a body of the wrong length is a failed fill, not
// something to slice.
func (e *EdgeServer) chunk(index, level int) (chunkBody, error) {
	k := cache.Key{Video: e.name, Level: level, Chunk: index}
	body, hit, err := e.store.Fetch(k, func() ([]byte, error) {
		return e.fillFromOrigin(index, level)
	})
	if err != nil {
		return chunkBody{}, err
	}
	if size := e.Video.ChunkSize(index, level); int64(len(body)) != size {
		return chunkBody{}, e.fillFailed(index, level,
			fmt.Errorf("netmp: stored body is %d bytes, chunk is %d", len(body), size))
	}
	if hit {
		return chunkBody{bytes: body, state: "hit"}, nil
	}
	return chunkBody{bytes: body, state: "miss"}, nil
}

// fillFromOrigin pulls one whole chunk through a pooled supervised
// fetcher, charging the transferred bytes to the origin-byte ledger, and
// reconstructs the verified deterministic body for the store.
func (e *EdgeServer) fillFromOrigin(index, level int) ([]byte, error) {
	var f *Fetcher
	select {
	case f = <-e.pool:
	case <-e.fillCtx.Done():
		return nil, e.fillCtx.Err()
	}
	if f.livePaths() == 0 && e.fillCtx.Err() == nil {
		// A path is down for its fetcher's lifetime, so one that met an
		// origin outage would fail every later fill: replace it. If the
		// dial fails this fill fails at once and the next checkout retries.
		if nf, err := e.dialFetcher(); err == nil {
			f.Close() // its connection is closed already; nothing to report
			f = nf
		}
	}
	defer func() { e.pool <- f }()
	res, err := f.FetchChunk(index, level, e.pol.FillWindow)
	if res != nil {
		e.originBytes.Add(res.PrimaryBytes + res.SecondaryBytes)
	}
	if err == nil && !res.Verified {
		err = errCorruptPayload
	}
	if err != nil {
		return nil, e.fillFailed(index, level, err)
	}
	body := make([]byte, res.Size)
	fillChunkBody(body, index, level, 0)
	return body, nil
}

// fillFailed counts and journals one failed fill and returns err.
func (e *EdgeServer) fillFailed(index, level int, err error) error {
	e.fillErrs.Add(1)
	if sink := e.journal(); sink != nil {
		sink.Emit(obs.NewEvent("cache.fill.error").WithChunk(index, level).
			WithStr("video", e.name).WithStr("error", err.Error()))
	}
	return err
}
