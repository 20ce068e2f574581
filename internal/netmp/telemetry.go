package netmp

// Telemetry wiring. Instrument hangs an obs.Telemetry off the fetcher,
// streamer, or server after construction; everything else in the package
// stays telemetry-agnostic. Two mechanisms keep the hot path at one
// branch when telemetry is off:
//
//   - Counters a component already maintains under its own mutex (path
//     stats, origin breakers, hedge totals, server overload/fault stats)
//     are exposed as scrape-time CounterFunc/GaugeFunc collectors — the
//     running code is not touched at all.
//   - Cold per-chunk points (start/done/fail, first byte, secondary
//     engage/stand-down) emit through the immutable *fetcherObs handle
//     published here; a nil handle no-ops.

import (
	"sync/atomic"
	"time"

	"mpdash/internal/obs"
)

// fetcherObs bundles the fetcher's inline telemetry handles. Immutable
// once published by Instrument; all methods are nil-safe so call sites
// need no guard beyond the single obsHandles read per chunk.
type fetcherObs struct {
	sink obs.Sink

	chunkDur     *obs.Histogram
	chunkSlack   *obs.Histogram
	firstByte    *obs.Histogram
	chunksMet    *obs.Counter
	chunksMissed *obs.Counter
	chunksFailed *obs.Counter
	engages      *obs.Counter
	standdowns   *obs.Counter
	aborts       *obs.Counter
	abortWaste   *obs.Counter
}

// Instrument wires the fetcher to t: chunk histograms and counters on
// the registry, scrape-time collectors for the path/origin/hedge stats,
// and journal events for every scheduler decision. Call once, after
// construction and before fetching.
func (f *Fetcher) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	fo := newFetcherObs(t)
	for _, pc := range f.paths {
		instrumentPath(t, pc)
	}
	registerHedgeMetrics(t.Registry, &f.hedge)
	f.obsMu.Lock()
	f.fobs = fo
	f.obsMu.Unlock()
}

func newFetcherObs(t *obs.Telemetry) *fetcherObs {
	r := t.Registry
	chunks := func(result string) *obs.Counter {
		return r.Counter("mpdash_chunks_total",
			"Chunk fetches by outcome (met/missed the deadline, or failed).",
			obs.Labels{"result": result})
	}
	toggles := func(action string) *obs.Counter {
		return r.Counter("mpdash_secondary_toggles_total",
			"Secondary-path scheduler decisions (Algorithm 1 engage/stand-down).",
			obs.Labels{"action": action})
	}
	return &fetcherObs{
		sink: t,
		chunkDur: r.Histogram("mpdash_chunk_duration_seconds",
			"Chunk download wall time.", obs.DefSecondsBuckets, nil),
		chunkSlack: r.Histogram("mpdash_chunk_deadline_slack_seconds",
			"Chunk deadline minus download time (negative = deadline miss).",
			obs.DefSlackBuckets, nil),
		firstByte: r.Histogram("mpdash_chunk_first_byte_seconds",
			"Chunk request start to first payload byte.", obs.DefSecondsBuckets, nil),
		chunksMet:    chunks("met"),
		chunksMissed: chunks("missed"),
		chunksFailed: chunks("failed"),
		engages:      toggles("engage"),
		standdowns:   toggles("standdown"),
		aborts: r.Counter("netmp_aborts_total",
			"Chunks abandoned mid-flight as doomed (predicted deadline miss).", nil),
		abortWaste: r.Counter("netmp_abort_wasted_bytes_total",
			"Partial payload bytes discarded by doomed-chunk aborts.", nil),
	}
}

// instrumentPath wires one supervised path: journal events through the
// path's sink, and scrape-time collectors over the stats it already
// keeps (per-path byte/retry/redial counters, per-origin breaker state).
func instrumentPath(t *obs.Telemetry, pc *pathConn) {
	pc.setSink(t)
	r := t.Registry
	lbl := obs.Labels{"path": pc.name}
	count := func(name, help string, get func(PathStats) int64) {
		r.CounterFunc(name, help, lbl, func() float64 { return float64(get(pc.stats())) })
	}
	count("mpdash_path_bytes_total", "Verified payload bytes delivered, per path.",
		func(s PathStats) int64 { return s.Bytes })
	count("mpdash_path_retries_total", "Absorbed range-request failures, per path.",
		func(s PathStats) int64 { return s.Retries })
	count("mpdash_path_redials_total", "Reconnect attempts (successful or not), per path.",
		func(s PathStats) int64 { return s.Redials })
	count("mpdash_path_reconnects_total", "Redials that produced a live connection, per path.",
		func(s PathStats) int64 { return s.Reconnects })
	count("mpdash_path_wasted_bytes_total", "Payload bytes discarded from failed or corrupt attempts, per path.",
		func(s PathStats) int64 { return s.WastedBytes })
	count("mpdash_path_failovers_total", "Origin switches, per path.",
		func(s PathStats) int64 { return s.Failovers })
	r.GaugeFunc("mpdash_path_up", "1 while the path lives (up or degraded), 0 once it is down.",
		lbl, func() float64 {
			if pc.isDown() {
				return 0
			}
			return 1
		})
	r.GaugeFunc("mpdash_path_state", "Path supervisor state (0=up, 1=degraded, 2=down).",
		lbl, func() float64 { return float64(pc.stats().State) })
	for _, o := range pc.set.origins {
		o := o
		o.breaker.setObs(t, pc.name, o.addr)
		olbl := obs.Labels{"path": pc.name, "origin": o.addr}
		r.GaugeFunc("mpdash_origin_breaker_state",
			"Origin circuit-breaker state (0=closed, 1=open, 2=half-open).",
			olbl, func() float64 { return float64(o.breaker.State()) })
		r.CounterFunc("mpdash_origin_breaker_trips_total",
			"Times the origin's breaker has opened.",
			olbl, func() float64 { return float64(o.breaker.Trips()) })
	}
}

// registerHedgeMetrics exposes the fetcher-wide hedge totals as
// scrape-time collectors over hedgeState's own counters.
func registerHedgeMetrics(r *obs.Registry, h *hedgeState) {
	load := func(c *atomic.Int64) func() float64 { return func() float64 { return float64(c.Load()) } }
	for _, m := range []struct {
		result string
		c      *atomic.Int64
	}{{"issued", &h.issued}, {"won", &h.won}, {"cancelled", &h.cancelled}} {
		r.CounterFunc("mpdash_hedges_total", "Hedged requests by outcome.", obs.Labels{"result": m.result}, load(m.c))
	}
	r.CounterFunc("mpdash_hedge_wasted_bytes_total",
		"Payload bytes spent on hedge losers, charged to the hedge budget.", nil, load(&h.wasted))
}

// ---- fetcherObs emission (all nil-safe) ----

func (fo *fetcherObs) emitChunkStart(index, level int, size int64, d time.Duration, segs int) {
	if fo == nil || fo.sink == nil {
		return
	}
	fo.sink.Emit(obs.NewEvent("chunk.start").WithChunk(index, level).
		WithNum("size", float64(size)).
		WithNum("deadline_s", d.Seconds()).
		WithNum("segments", float64(segs)))
}

func (fo *fetcherObs) emitChunkDone(index, level int, d time.Duration, res *FetchResult) {
	if fo == nil {
		return
	}
	slack := d - res.Duration
	fo.chunkDur.Observe(res.Duration.Seconds())
	fo.chunkSlack.Observe(slack.Seconds())
	if res.MissedBy > 0 {
		fo.chunksMissed.Inc()
	} else {
		fo.chunksMet.Inc()
	}
	if fo.sink != nil {
		fo.sink.Emit(obs.NewEvent("chunk.done").WithChunk(index, level).
			WithNum("duration_s", res.Duration.Seconds()).
			WithNum("slack_s", slack.Seconds()).
			WithNum("primary_bytes", float64(res.PrimaryBytes)).
			WithNum("secondary_bytes", float64(res.SecondaryBytes)))
	}
}

func (fo *fetcherObs) emitChunkFail(index, level int, err error) {
	if fo == nil {
		return
	}
	fo.chunksFailed.Inc()
	if fo.sink != nil {
		fo.sink.Emit(obs.NewEvent("chunk.fail").WithChunk(index, level).
			WithStr("error", err.Error()))
	}
}

// noteAbort counts one doomed-chunk abort (the journal event is emitted
// by emitAbort, which carries the decision's numbers).
func (fo *fetcherObs) noteAbort() {
	if fo == nil {
		return
	}
	fo.aborts.Inc()
}

// noteAbortWaste charges the partial bytes a doomed-chunk abort threw
// away.
func (fo *fetcherObs) noteAbortWaste(n int64) {
	if fo == nil || n <= 0 {
		return
	}
	fo.abortWaste.Add(n)
}

// emitToggle journals one secondary engage (on=true, with its reason) or
// stand-down with the numbers that drove the decision: the measured rate
// (converted to bits/s to match the sim scheduler's estimate_bps), the
// bytes still unclaimed, and the remaining α·D window. rate arrives in
// bytes/s, the unit the engagement test runs in.
func (fo *fetcherObs) emitToggle(on bool, reason, path string, index, level int, rate, remaining, window float64) {
	if fo == nil {
		return
	}
	typ := "path.standdown"
	if on {
		typ = "path.engage"
		fo.engages.Inc()
	} else {
		fo.standdowns.Inc()
	}
	if fo.sink == nil {
		return
	}
	e := obs.NewEvent(typ).WithPath(path).WithChunk(index, level).
		WithNum("rate_bps", rate*8).
		WithNum("remaining_bytes", remaining).
		WithNum("window_s", window)
	if on {
		e = e.WithStr("reason", reason)
	}
	fo.sink.Emit(e)
}

// ---- first-byte span tracking ----

// noteFirstByte records the in-flight chunk's first payload byte. The
// fetcher's firstByte flag is atomic so the per-block read loop pays one
// relaxed load, and its CAS guarantees exactly one observation per chunk
// even when several paths race to deliver it.
func (f *Fetcher) noteFirstByte() {
	if !f.firstByte.CompareAndSwap(true, false) {
		return
	}
	fo := f.obsHandles()
	if fo == nil {
		return
	}
	j := &f.job
	elapsed := f.clk.now().Sub(j.start)
	fo.firstByte.Observe(elapsed.Seconds())
	if fo.sink != nil {
		fo.sink.Emit(obs.NewEvent("chunk.firstbyte").WithChunk(j.index, j.level).
			WithNum("elapsed_s", elapsed.Seconds()))
	}
}

// ---- streamer ----

// streamerObs bundles the playback loop's telemetry handles; nil = off.
type streamerObs struct {
	sink       obs.Sink
	stalls     *obs.Counter
	stallTime  *obs.Histogram
	refetches  *obs.Counter
	lost       *obs.Counter
	extends    *obs.Counter
	downgrades *obs.Counter
	buffer     *obs.Gauge
}

// Instrument wires the streamer (and its fetcher) to t. Call before
// Stream.
func (s *Streamer) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	s.Fetcher.Instrument(t)
	r := t.Registry
	s.sobs = &streamerObs{
		sink: t,
		stalls: r.Counter("mpdash_stream_stalls_total",
			"Playback stalls (rebuffering events).", nil),
		stallTime: r.Histogram("mpdash_stream_stall_seconds",
			"Duration of each playback stall.", obs.DefSecondsBuckets, nil),
		refetches: r.Counter("mpdash_stream_refetches_total",
			"Chunks refetched at the lowest level after exhausting their budget.", nil),
		lost: r.Counter("mpdash_stream_lost_chunks_total",
			"Chunks abandoned after the lifeline refetch failed too.", nil),
		extends: r.Counter("mpdash_stream_deadline_extensions_total",
			"Chunk deadlines extended by the Φ high-buffer rule (§5.1).", nil),
		downgrades: r.Counter("netmp_downgrades_total",
			"Rendition downgrades after a doomed-chunk abort.", nil),
		buffer: r.Gauge("mpdash_stream_buffer_seconds",
			"Playback buffer level at the last chunk boundary.", nil),
	}
}

func (so *streamerObs) emitExtend(chunk, level int, ext, buffer, phi time.Duration) {
	if so == nil {
		return
	}
	so.extends.Inc()
	if so.sink != nil {
		so.sink.Emit(obs.NewEvent("stream.extend").WithChunk(chunk, level).
			WithNum("extension_s", ext.Seconds()).
			WithNum("buffer_s", buffer.Seconds()).
			WithNum("phi_s", phi.Seconds()))
	}
}

func (so *streamerObs) emitStall(chunk int, stall time.Duration) {
	if so == nil {
		return
	}
	so.stalls.Inc()
	so.stallTime.Observe(stall.Seconds())
	if so.sink != nil {
		so.sink.Emit(obs.NewEvent("stream.stall").WithChunk(chunk, -1).
			WithNum("stall_s", stall.Seconds()))
	}
}

func (so *streamerObs) emitRefetch(chunk, level int) {
	if so == nil {
		return
	}
	so.refetches.Inc()
	if so.sink != nil {
		so.sink.Emit(obs.NewEvent("stream.refetch").WithChunk(chunk, level))
	}
}

// emitDowngrade journals one abort-driven rendition downgrade: chunk
// re-requested at `to` after being doomed at `from`, with the rate and
// window that drove the fitLevel choice.
func (so *streamerObs) emitDowngrade(chunk, from, to int, rate float64, window time.Duration) {
	if so == nil {
		return
	}
	so.downgrades.Inc()
	if so.sink != nil {
		so.sink.Emit(obs.NewEvent("stream.downgrade").WithChunk(chunk, from).
			WithNum("to_level", float64(to)).
			WithNum("rate_bps", rate*8).
			WithNum("window_s", window.Seconds()))
	}
}

func (so *streamerObs) emitLost(chunk int) {
	if so == nil {
		return
	}
	so.lost.Inc()
	if so.sink != nil {
		so.sink.Emit(obs.NewEvent("stream.lost").WithChunk(chunk, -1))
	}
}

func (so *streamerObs) setBuffer(buffer time.Duration) {
	if so == nil {
		return
	}
	so.buffer.Set(buffer.Seconds())
}

// ---- servers ----

// instrument wires the front to t: scrape-time collectors over the
// served bytes, admission state and overload stats it already keeps,
// plus journal events for admission rejections and drain — the same
// mpdash_server_* series for an origin and an edge, told apart by addr.
func (f *front) instrument(t *obs.Telemetry) {
	f.connMu.Lock()
	f.sink = t
	f.connMu.Unlock()
	r := t.Registry
	lbl := obs.Labels{"addr": f.addr}
	r.CounterFunc("mpdash_server_served_bytes_total",
		"Payload bytes written by the server.",
		lbl, func() float64 { return float64(f.ServedBytes()) })
	r.GaugeFunc("mpdash_server_active_conns",
		"Currently admitted connections.",
		lbl, func() float64 { return float64(f.CurrentConns()) })
	r.GaugeFunc("mpdash_server_draining",
		"1 once Drain has been called.",
		lbl, func() float64 {
			if f.Draining() {
				return 1
			}
			return 0
		})
	over := func(name, help string, get func(OverloadStats) int64) {
		r.CounterFunc(name, help, lbl, func() float64 { return float64(get(f.OverloadStats())) })
	}
	over("mpdash_server_rejected_conns_total", "Accepts refused with a 503 under MaxConns pressure.",
		func(o OverloadStats) int64 { return o.RejectedConns })
	over("mpdash_server_capped_conns_total", "Connections closed for reaching MaxRequestsPerConn.",
		func(o OverloadStats) int64 { return o.CappedConns })
	over("mpdash_server_panics_recovered_total", "Handler panics absorbed without killing the server.",
		func(o OverloadStats) int64 { return o.PanicsRecovered })
	over("mpdash_server_accept_retries_total", "Transient Accept errors absorbed with backoff.",
		func(o OverloadStats) int64 { return o.AcceptRetries })
}

// Instrument wires the chunk server to t: the front's collectors and
// events, plus the fault-injection stats by kind.
func (s *ChunkServer) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	s.front.instrument(t)
	fault := func(kind string, get func(FaultStats) int64) {
		t.Registry.CounterFunc("mpdash_server_injected_faults_total",
			"Faults injected by the server's chaos plan, by kind.",
			obs.Labels{"addr": s.Addr(), "kind": kind},
			func() float64 { return float64(get(s.FaultStats())) })
	}
	fault("reset", func(f FaultStats) int64 { return f.Resets })
	fault("stall", func(f FaultStats) int64 { return f.Stalls })
	fault("close", func(f FaultStats) int64 { return f.PrematureCloses })
	fault("corrupt", func(f FaultStats) int64 { return f.Corruptions })
	fault("blackout_reset", func(f FaultStats) int64 { return f.BlackoutResets })
}
