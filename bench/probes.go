package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/energy"
	"mpdash/internal/field"
	"mpdash/internal/mptcp"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
	"mpdash/internal/predict"
	"mpdash/internal/sim"
	"mpdash/internal/stats"
	"mpdash/internal/trace"
)

// Probes measure one layer at a time from outside it. A wire probe is a
// raw TCP client on a warm connection, timing a server at its public
// surface; a layer probe calls one exported function in a loop. Every
// traced pass runs all of them on the same small rig, after its window,
// so a layer's cost is on record whichever workload is being read.

// probeCosts are the CPU costs the ledger multiplies by a workload's
// operation counts.
type probeCosts struct {
	originReqUS  float64 // CPU µs per 16 KiB range request at an origin, raw client included
	edgeHitReqUS float64 // the same through an edge, chunk resident
	renderNS     float64
	bufpoolNS    float64
	putNS        float64
	fetchMissNS  float64
	shaperNS     float64
	traceChunkNS float64
	journalNS    float64
}

var crlf2 = []byte("\r\n\r\n")
var contentLength = []byte("Content-Length: ")

// wireClient speaks the chunk protocol over one connection without
// allocating, so allocation counts taken around it are the server's.
type wireClient struct {
	conn net.Conn
	buf  []byte
}

func dialWire(addr string) (*wireClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: c, buf: make([]byte, 64<<10)}, nil
}

// roundTrip writes one request and reads one whole response, returning
// the body length.
func (w *wireClient) roundTrip(req []byte) (int, error) {
	if err := w.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := w.conn.Write(req); err != nil {
		return 0, err
	}
	n, head := 0, -1
	for head < 0 {
		if n == len(w.buf) {
			return 0, errors.New("wire probe: response head larger than the buffer")
		}
		m, err := w.conn.Read(w.buf[n:])
		if err != nil {
			return 0, err
		}
		n += m
		head = bytes.Index(w.buf[:n], crlf2)
	}
	if !bytes.HasPrefix(w.buf, []byte("HTTP/1.1 20")) {
		return 0, fmt.Errorf("wire probe: status %q", w.buf[:min(n, 32)])
	}
	at := bytes.Index(w.buf[:head], contentLength)
	if at < 0 {
		return 0, errors.New("wire probe: no Content-Length")
	}
	length := 0
	for _, c := range w.buf[at+len(contentLength) : head] {
		if c < '0' || c > '9' {
			break
		}
		length = length*10 + int(c-'0')
	}
	for got := n - head - len(crlf2); got < length; {
		m, err := w.conn.Read(w.buf)
		if err != nil {
			return 0, err
		}
		got += m
	}
	return length, nil
}

// wire times next()'s requests for budget: median wall µs, allocations
// and process CPU µs per request.
func (w *wireClient) wire(budget time.Duration, next func() (req []byte, wantBody int)) (p50US, allocs, cpuUS float64, err error) {
	var durs []float64
	req, _ := next()
	if _, err := w.roundTrip(req); err != nil { // warm the connection's handler
		return 0, 0, 0, err
	}
	before := takeSnapshot()
	for start := time.Now(); len(durs) < 5 || time.Since(start) < budget; {
		req, want := next()
		t0 := time.Now()
		got, err := w.roundTrip(req)
		durs = append(durs, us(time.Since(t0)))
		if err != nil {
			return 0, 0, 0, err
		}
		if want >= 0 && got != want {
			return 0, 0, 0, fmt.Errorf("wire probe: body of %d bytes, want %d", got, want)
		}
	}
	c := takeSnapshot().since(before)
	n := float64(len(durs))
	// durs itself grows inside the window; its few reallocations are the
	// probe's only allocations and vanish against thousands of requests.
	return pct(durs, 50), c.mallocs / n, c.cpuUS() / n, nil
}

// probeRig is the servers the wire probes talk to: one origin, an edge
// whose store holds what is asked for, and an edge whose store can hold
// nothing, so every request to it is a miss and an origin fill.
type probeRig struct {
	video    *dash.Video
	origin   *netmp.ChunkServer
	hot      *netmp.EdgeServer
	cold     *netmp.EdgeServer
	hotStore *cache.Cache
}

const hotChunks = 8

func buildProbeRig() (*probeRig, error) {
	p := &probeRig{video: benchVideo()}
	var err error
	if p.origin, err = netmp.NewChunkServer(p.video, 0); err != nil {
		return nil, err
	}
	p.hotStore = cache.New(cache.Config{})
	top := p.video.HighestLevel()
	for c := 0; c < hotChunks; c++ {
		p.hotStore.Put(cache.Key{Video: videoName, Level: top, Chunk: c}, chunkBytes(p.video, c, top))
	}
	origins := []string{p.origin.Addr()}
	if p.hot, err = netmp.NewEdgeServer(p.video, videoName, origins, p.hotStore, netmp.EdgePolicy{}); err != nil {
		p.close()
		return nil, err
	}
	// One byte per shard: Put refuses every body.
	if p.cold, err = netmp.NewEdgeServer(p.video, videoName, origins, cache.New(cache.Config{CapacityBytes: 16}), netmp.EdgePolicy{}); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *probeRig) close() {
	for _, e := range []*netmp.EdgeServer{p.hot, p.cold} {
		if e != nil {
			e.Close()
		}
	}
	p.origin.Close()
}

// rangeRequests renders 16 KiB range requests for the top rendition of
// chunks 0..n-1 in turn.
func rangeRequests(v *dash.Video, n int) func() ([]byte, int) {
	var req []byte
	i := 0
	id := v.Levels[v.HighestLevel()].ID
	return func() ([]byte, int) {
		req = netmp.AppendRangeRequest(req[:0], id, i%n, 0, segSize-1)
		i++
		return req, segSize
	}
}

// runProbes runs every probe for about budget in total and returns the
// costs the ledger needs.
func runProbes(budget time.Duration, v map[string]float64, rec *recorder, parent int64) (*probeCosts, error) {
	_, end := rec.begin("probes", parent, "")
	defer end()
	each := budget / 28
	pc := &probeCosts{}
	rig, err := buildProbeRig()
	if err != nil {
		return nil, err
	}
	defer rig.close()
	video := rig.video

	// ---- wire probes ----
	oc, err := dialWire(rig.origin.Addr())
	if err != nil {
		return nil, err
	}
	defer oc.conn.Close()
	if v["netmp.server.range_us.16k"], v["netmp.server.range_allocs"], pc.originReqUS, err = oc.wire(each, rangeRequests(video, videoChunks)); err != nil {
		return nil, err
	}
	manifest := []byte("GET /manifest.mpd HTTP/1.1\r\nHost: x\r\n\r\n")
	if v["netmp.server.manifest_us"], _, _, err = oc.wire(each, func() ([]byte, int) { return manifest, -1 }); err != nil {
		return nil, err
	}
	hc, err := dialWire(rig.hot.Addr())
	if err != nil {
		return nil, err
	}
	defer hc.conn.Close()
	if v["netmp.edge.hit_us.16k"], v["netmp.edge.hit_allocs"], pc.edgeHitReqUS, err = hc.wire(each, rangeRequests(video, hotChunks)); err != nil {
		return nil, err
	}
	if fills := rig.hotStore.Stats().Fills; fills != 0 {
		return nil, fmt.Errorf("edge hit probe caused %d origin fills", fills)
	}
	cc, err := dialWire(rig.cold.Addr())
	if err != nil {
		return nil, err
	}
	defer cc.conn.Close()
	var req []byte
	miss := 0
	if v["netmp.edge.miss_us"], _, _, err = cc.wire(each, func() ([]byte, int) {
		c := miss % videoChunks
		miss++
		size := int(video.ChunkSize(c, 0))
		req = netmp.AppendRangeRequest(req[:0], video.Levels[0].ID, c, 0, int64(size-1))
		return req, size
	}); err != nil {
		return nil, err
	}
	var dials []float64
	for start := time.Now(); len(dials) < 5 || time.Since(start) < each; {
		t0 := time.Now()
		f, err := netmp.NewFetcher(video, rig.origin.Addr(), rig.origin.Addr())
		dials = append(dials, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	v["netmp.dial_ms"] = pct(dials, 50)

	// ---- layer probes: netmp ----
	i := 0
	pc.renderNS, _ = loopNS(each, func() {
		req = netmp.AppendRangeRequest(req[:0], 3, i&255, int64(i&31)*segSize, int64(i&31)*segSize+segSize-1)
		i++
	})
	v["netmp.request_render_ns"] = pc.renderNS
	pc.bufpoolNS, _ = loopNS(each, func() { netmp.ReleaseSegBuf(netmp.AcquireSegBuf()) })
	v["netmp.bufpool.cycle_ns"] = pc.bufpoolNS

	ctx := context.Background()
	open := netmp.NewTokenBucket(1e15, 64<<10) // shaped, but never short of tokens
	pc.shaperNS, _ = loopNS(each, func() { _ = open.Take(ctx, segSize) })
	v["netmp.shaper.take_ns"] = pc.shaperNS
	v["netmp.shaper.rate_error_share"] = shaperRateError(4 * each)

	wheel := netmp.NewTimerWheel(nil, 0)
	defer wheel.Close()
	v["netmp.wheel.afterfunc_ns"], _ = loopNS(each, func() { wheel.AfterFunc(time.Hour, func() {}).Stop() })
	v["netmp.wheel.fire_lag_us_p95"] = wheelFireLag(wheel)

	board := netmp.NewCongestionBoard()
	v["netmp.board.publish_ns"], _ = loopNS(each, func() {
		board.Publish("group:v0:w80:l80", 8e6+float64(i&1023))
		i++
	})

	// ---- layer probes: cache ----
	hotKey := cache.Key{Video: videoName, Level: video.HighestLevel(), Chunk: 0}
	v["cache.get_range_ns"], _ = loopNS(each, func() {
		if _, ok := rig.hotStore.GetRange(hotKey, segSize, 2*segSize-1); !ok {
			panic("probe: resident chunk missing")
		}
	})
	body := chunkBytes(video, 0, 1)
	churn := cache.New(cache.Config{CapacityBytes: 8 << 20}) // 64 keys of 128 KiB through 8 MiB: every Put evicts
	pc.putNS, _ = loopNS(each, func() {
		churn.Put(cache.Key{Video: videoName, Level: 1, Chunk: i & 63}, body)
		i++
	})
	v["cache.put_ns"] = pc.putNS
	refusing := cache.New(cache.Config{CapacityBytes: 16})
	pc.fetchMissNS, _ = loopNS(each, func() {
		_, _, _ = refusing.Fetch(cache.Key{Video: videoName, Level: 1, Chunk: i & 255}, func() ([]byte, error) { return body, nil })
		i++
	})
	v["cache.fetch_miss_ns"] = pc.fetchMissNS

	// ---- layer probes: the simulator stack ----
	s := sim.New()
	v["sim.event_ns"], _ = loopNS(each, func() {
		s.Schedule(time.Millisecond, func() {})
		s.Step()
	})
	sched, err := probeScheduler()
	if err != nil {
		return nil, err
	}
	v["core.tick_ns"], _ = loopNS(each, sched.Tick)
	bw, unitCost := knapsackInstance()
	ns, _ := loopNS(each, func() {
		if _, err := core.MinCostSchedule(bw, unitCost, 500*time.Millisecond, 4_000_000, 4096); err != nil {
			panic(err)
		}
	})
	v["core.knapsack_ms"] = ns / 1e6
	loc := field.Locations()[0]
	wifi, lte := loc.WiFiTrace(traceSlot, 600), loc.LTETrace(traceSlot, 600)
	slotCfg := core.SlotSimConfig{WiFiMbps: wifi.Mbps, CellMbps: lte.Mbps, Slot: 50 * time.Millisecond, Size: 2_000_000, Deadline: 4 * time.Second}
	res, err := core.SimulateOnline(slotCfg)
	if err != nil {
		return nil, err
	}
	ns, _ = loopNS(each, func() { _, _ = core.SimulateOnline(slotCfg) })
	v["core.slotsim_ns_per_slot"] = ns / math.Max(float64(res.Finish/slotCfg.Slot), 1)
	hw := predict.NewDefaultHoltWinters()
	v["predict.hw_observe_ns"], _ = loopNS(each, func() {
		hw.Observe(20e6 + float64(i%13)*250e3)
		i++
	})
	ns, _ = loopNS(each, func() {
		_ = loc.WiFiTrace(traceSlot, traceSlots)
		_ = loc.LTETrace(traceSlot, traceSlots)
	})
	v["trace.location_gen_ms"] = ns / 1e6
	buckets := make([]int64, 2400) // a 4-minute session metered at 100 ms
	for b := range buckets {
		if b%40 < 12 {
			buckets[b] = 60_000
		}
	}
	ns, _ = loopNS(each, func() {
		if _, err := energy.SessionEnergy(energy.GalaxyNote(), buckets, buckets, 100*time.Millisecond, 4*time.Minute); err != nil {
			panic(err)
		}
	})
	v["energy.session_us"] = ns / 1e3
	z := stats.NewZipf(1.0, videoChunks)
	rng := rand.New(rand.NewSource(1))
	v["stats.zipf_draw_ns"], _ = loopNS(each, func() { z.Draw(rng) })

	// ---- layer probes: telemetry's own cost ----
	reg := obs.NewRegistry()
	ctr := reg.Counter("probe_total", "probe", nil)
	v["obs.counter_add_ns"], _ = loopNS(each, func() { ctr.Add(1) })
	hist := reg.Histogram("probe_seconds", "probe", nil, nil)
	v["obs.hist_observe_ns"], _ = loopNS(each, func() {
		hist.Observe(float64(i&1023) * 1e-4)
		i++
	})
	journal := obs.NewJournal(obs.DefaultJournalCap)
	ev := obs.NewEvent("chunk.done").WithChunk(3, 1).WithNum("bytes", 131072)
	ev.T = time.Unix(1, 0)
	pc.journalNS, _ = loopNS(each, func() { journal.Append(ev) })
	v["obs.journal_append_ns"] = pc.journalNS
	tracer := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0, Seed: 1}) // healthy traces dropped at Finish: nothing accumulates
	pc.traceChunkNS, _ = loopNS(each, func() {
		t := tracer.StartTrace(0, i, 1)
		i++
		t.SetDeadline(time.Second)
		fsp := t.StartSpan(obs.CatFetch, "fetch")
		fsp.SetNum("size", 131072)
		for seg := 0; seg < 8; seg++ {
			ssp := t.StartSpan(obs.CatSegment, "segment")
			ssp.SetPath("wifi")
			ssp.SetNum("seg", float64(seg))
			ssp.End()
		}
		fsp.End()
		t.Finish(obs.TraceOK)
	})
	v["obs.trace_chunk_ns"] = pc.traceChunkNS
	return pc, nil
}

// shaperRateError runs a 100 Mbps bucket flat out for d and returns how
// far the bytes it granted are from rate × time + burst.
func shaperRateError(d time.Duration) float64 {
	const rate, burst = 100e6 / 8, 64 << 10
	tb := netmp.NewTokenBucket(rate, burst)
	ctx := context.Background()
	granted := 0.0
	start := time.Now()
	for time.Since(start) < d {
		_ = tb.Take(ctx, segSize)
		granted += segSize
	}
	want := rate*time.Since(start).Seconds() + burst
	return math.Abs(granted-want) / want
}

// wheelFireLag arms timers 6–66 ms out and returns the 95th percentile
// of how long after its deadline each fired.
func wheelFireLag(w *netmp.TimerWheel) float64 {
	const n = 60
	lags := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		d := time.Duration(6+i) * time.Millisecond
		due := time.Now().Add(d)
		w.AfterFunc(d, func() {
			lags[i] = math.Max(us(time.Since(due)), 0)
			wg.Done()
		})
	}
	wg.Wait()
	return pct(lags, 95)
}

// probeScheduler is a three-path connection with a governed transfer
// whose window never closes (the simulator clock stands still), so
// every Tick walks the whole of Algorithm 1.
func probeScheduler() (*core.Scheduler, error) {
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("wifi", 30, traceSlot, 1), RTT: 50 * time.Millisecond, Cost: 1, Primary: true},
		{Name: "eth", Rate: trace.Constant("eth", 20, traceSlot, 1), RTT: 40 * time.Millisecond, Cost: 3},
		{Name: "lte", Rate: trace.Constant("lte", 25, traceSlot, 1), RTT: 60 * time.Millisecond, Cost: 5},
	}})
	if err != nil {
		return nil, err
	}
	sched, err := core.NewScheduler(s, conn, 0.9)
	if err != nil {
		return nil, err
	}
	return sched, sched.Enable(40_000_000, 20*time.Second)
}

// knapsackInstance is a Table 2-shaped plan: two interfaces, 30
// half-second slots.
func knapsackInstance() (bw [][]float64, unitCost []float64) {
	bw = make([][]float64, 2)
	for i := range bw {
		bw[i] = make([]float64, 30)
		for j := range bw[i] {
			bw[i][j] = 2e6 + float64((i+1)*(j%7))*300e3
		}
	}
	return bw, []float64{1, 5}
}
