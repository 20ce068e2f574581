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
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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
	// Breaker, Retry and Hedge bound the fill fetchers' origin
	// machinery; zero values select the package defaults.
	Breaker BreakerPolicy
	Retry   RetryPolicy
	Hedge   HedgePolicy
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

// EdgeServer is one cache-tier front: a listener, a shared chunk store,
// and a fetcher pool toward the ranked origins.
type EdgeServer struct {
	Video *dash.Video

	name   string // cache key namespace (the video's catalog identity)
	addr   string
	ln     net.Listener
	bucket *TokenBucket
	pol    EdgePolicy
	store  *cache.Cache

	origins []string      // ranked; every fill fetcher dials through all of them
	pool    chan *Fetcher // fill fetchers; a fill holds one for its duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	clk    Clock

	mu          sync.Mutex
	served      int64
	originBytes int64
	fillErrs    int64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	sink   obs.Sink // guarded by connMu
}

// NewEdgeServer starts an edge on a loopback port, fronting origins for
// video. name namespaces the video's keys in the shared store (two
// videos with the same name share entries, which is the point of a
// shared cache tier). The origin list is ranked: the fill fetchers
// apply breaker-driven failover across it.
func NewEdgeServer(video *dash.Video, name string, origins []string, store *cache.Cache, pol EdgePolicy) (*EdgeServer, error) {
	if err := video.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("netmp: edge needs a cache store")
	}
	if len(origins) == 0 {
		return nil, errors.New("netmp: edge needs at least one origin")
	}
	pol = pol.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netmp: edge listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &EdgeServer{
		Video:   video,
		name:    name,
		addr:    ln.Addr().String(),
		ln:      ln,
		bucket:  newTokenBucketClocked(pol.RateMbps*1e6/8, 64*1024, nil),
		pol:     pol,
		store:   store,
		origins: origins,
		pool:    make(chan *Fetcher, pol.FillFetchers),
		ctx:     ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	for i := 0; i < pol.FillFetchers; i++ {
		f, err := e.dialFetcher()
		if err != nil {
			cancel()
			ln.Close()
			e.closeFetchers()
			return nil, fmt.Errorf("netmp: edge fill fetcher: %w", err)
		}
		e.pool <- f
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// dialFetcher builds one fill fetcher: a single connection through the
// ranked origins. A fill is one whole chunk from one tier — no costlier
// path to hold back, and no standby controller to wait a tick on.
func (e *EdgeServer) dialFetcher() (*Fetcher, error) {
	f, err := NewFetcherOrigins(e.Video, e.pol.Breaker, e.origins)
	if err != nil {
		return nil, err
	}
	f.Retry = e.pol.Retry
	f.Hedge = e.pol.Hedge
	// The fill path is origin-facing: the edge must not interpret its own
	// hint headers (origins send none, but a cascaded edge tier would).
	f.CacheHint.Disabled = true
	return f, nil
}

// Addr returns the edge's listen address.
func (e *EdgeServer) Addr() string { return e.addr }

// ServedBytes returns the payload bytes written to clients.
func (e *EdgeServer) ServedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.served
}

// OriginBytes returns the payload bytes pulled from origins by misses —
// the denominator's complement of the origin-offload ratio.
func (e *EdgeServer) OriginBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.originBytes
}

// FillErrors returns how many origin fills failed outright.
func (e *EdgeServer) FillErrors() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fillErrs
}

// Instrument wires the edge to t: scrape-time collectors over the byte
// counters plus journal events for fill failures. The shared store is
// instrumented separately (once, not per edge).
func (e *EdgeServer) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	e.connMu.Lock()
	e.sink = t
	e.connMu.Unlock()
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

// Close stops the edge: listener, admitted connections, fill fetchers.
func (e *EdgeServer) Close() error {
	e.cancel()
	err := e.ln.Close()
	e.connMu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.connMu.Unlock()
	e.wg.Wait()
	if ferr := e.closeFetchers(); ferr != nil {
		err = errors.Join(err, ferr)
	}
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

func (e *EdgeServer) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // the edge tier has no chaos plan; any error means Close
		}
		e.connMu.Lock()
		e.conns[conn] = struct{}{}
		e.connMu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() {
				e.connMu.Lock()
				delete(e.conns, conn)
				e.connMu.Unlock()
				conn.Close()
			}()
			e.serve(conn)
		}()
	}
}

// serve handles one keep-alive client connection.
func (e *EdgeServer) serve(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		index, level, from, to, manifest, bad, ok := readChunkRequest(r, e.Video)
		if !ok {
			return
		}
		if bad {
			w.WriteString(head400)
			w.Flush()
			continue
		}
		if manifest {
			if err := writeManifestFor(w, e.Video); err != nil {
				return
			}
			continue
		}
		size := e.Video.ChunkSize(index, level)
		if to < 0 || to >= size {
			to = size - 1
		}
		if from < 0 || from > to {
			w.WriteString(head416)
			w.Flush()
			continue
		}
		body, hit, err := e.chunkBody(index, level)
		if err != nil {
			// An exhausted origin set is the edge's overload face:
			// transient for the client's supervisor, breaker fuel for a
			// (future) multi-edge set.
			w.WriteString(head503)
			w.Flush()
			continue
		}
		state := "miss"
		if hit {
			state = "hit"
		}
		n := to - from + 1
		w.Write(appendRangeHead(w.AvailableBuffer(), n, from, to, size, state))
		if err := e.writeBody(w, body[from:to+1]); err != nil {
			w.Flush()
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// chunkBody returns (index, level)'s full body via the shared store,
// filling from origin on a miss (singleflight-collapsed across every
// concurrent request for the key, this edge's and its siblings' alike).
func (e *EdgeServer) chunkBody(index, level int) ([]byte, bool, error) {
	k := cache.Key{Video: e.name, Level: level, Chunk: index}
	return e.store.Fetch(k, func() ([]byte, error) {
		return e.fillFromOrigin(index, level)
	})
}

// fillFromOrigin pulls one whole chunk through a pooled supervised
// fetcher, charging the transferred bytes to the origin-byte ledger, and
// reconstructs the verified deterministic body for the store.
func (e *EdgeServer) fillFromOrigin(index, level int) ([]byte, error) {
	var f *Fetcher
	select {
	case f = <-e.pool:
	case <-e.ctx.Done():
		return nil, e.ctx.Err()
	}
	if f.livePaths() == 0 && e.ctx.Err() == nil {
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
		e.mu.Lock()
		e.originBytes += res.PrimaryBytes + res.SecondaryBytes
		e.mu.Unlock()
	}
	if err == nil && !res.Verified {
		err = errCorruptPayload
	}
	if err != nil {
		e.mu.Lock()
		e.fillErrs++
		e.mu.Unlock()
		e.emitFillError(index, level, err)
		return nil, err
	}
	body := make([]byte, res.Size)
	for i := range body {
		body[i] = ChunkBody(index, level, int64(i))
	}
	return body, nil
}

// writeBody streams one range slice through the edge's rate shaper in
// origin-sized blocks.
func (e *EdgeServer) writeBody(w *bufio.Writer, body []byte) error {
	const block = 16 * 1024
	for off := 0; off < len(body); off += block {
		m := block
		if m > len(body)-off {
			m = len(body) - off
		}
		if err := e.bucket.Take(e.ctx, m); err != nil {
			return err
		}
		if _, err := w.Write(body[off : off+m]); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		e.mu.Lock()
		e.served += int64(m)
		e.mu.Unlock()
	}
	return nil
}

// emitFillError journals one failed origin fill.
func (e *EdgeServer) emitFillError(index, level int, err error) {
	e.connMu.Lock()
	sink := e.sink
	e.connMu.Unlock()
	if sink == nil {
		return
	}
	sink.Emit(obs.NewEvent("cache.fill.error").WithChunk(index, level).
		WithStr("video", e.name).WithStr("error", err.Error()))
}
