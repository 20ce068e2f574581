package perf

// The "core" suite: micro scenarios over the compute hot paths. Each
// scenario batches inner logical operations per measured op (stats are
// normalized back to the logical operation) and runs a fixed-work
// deterministic side pass for its domain metrics, so the numbers the
// gate holds exact never depend on b.N or wall time.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/core"
	"mpdash/internal/mptcp"
	"mpdash/internal/obs"
	"mpdash/internal/predict"
	"mpdash/internal/sim"
	"mpdash/internal/stats"
	"mpdash/internal/tcp"
	"mpdash/internal/trace"
)

const (
	tickInner    = 100
	packetInner  = 256
	hwInner      = 64
	observeInner = 128
	traceInner   = 64
	cacheInner   = 128
)

func coreScenarios() []*scenario {
	return []*scenario{
		{name: "core_scheduler_tick", inner: tickInner, setup: setupSchedulerTick, domain: schedulerDomain},
		{name: "core_holtwinters_update", inner: hwInner, setup: setupHoltWinters, domain: holtWintersDomain},
		{name: "core_knapsack_dp", inner: 1, setup: setupKnapsack, domain: knapsackDomain},
		{name: "sim_packet_path", inner: packetInner, setup: setupPacketPath, domain: packetPathDomain},
		{name: "obs_handle_lookup", inner: 1, setup: setupHandleLookup, domain: obsDomain},
		{name: "obs_histogram_observe", inner: observeInner, setup: setupHistogramObserve, domain: nil},
		{name: "obs_trace_disabled", inner: traceInner, setup: setupTraceDisabled, domain: nil},
		{name: "obs_trace_chunk", inner: 1, setup: setupTraceChunk, domain: traceDomain},
		{name: "cache_get", inner: cacheInner, setup: setupCacheGet, domain: cacheDomain},
		{name: "cache_put", inner: cacheInner, setup: setupCachePut, domain: nil},
		{name: "cache_singleflight", inner: 1, setup: setupCacheSingleflight, domain: nil},
	}
}

// newBenchScheduler assembles a three-path connection (the N-path §4
// generalization: WiFi primary, metered LTE, mid-cost ethernet) with an
// active governed transfer, ready for Tick-driven evaluation.
func newBenchScheduler() (*core.Scheduler, error) {
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("wifi", 30, 100*time.Millisecond, 1), RTT: 50 * time.Millisecond, Cost: 1, Primary: true},
		{Name: "eth", Rate: trace.Constant("eth", 20, 100*time.Millisecond, 1), RTT: 40 * time.Millisecond, Cost: 3},
		{Name: "lte", Rate: trace.Constant("lte", 25, 100*time.Millisecond, 1), RTT: 60 * time.Millisecond, Cost: 5},
	}})
	if err != nil {
		return nil, err
	}
	sch, err := core.NewScheduler(s, conn, 0.9)
	if err != nil {
		return nil, err
	}
	// A governed 40 MB transfer with a 20 s window keeps every Tick on
	// the full Algorithm 1 path (sort + prefix-cover walk) without the
	// deadline ever passing — the simulator clock is never advanced.
	if err := sch.Enable(40_000_000, 20*time.Second); err != nil {
		return nil, err
	}
	return sch, nil
}

// setupSchedulerTick measures the Algorithm 1 decision loop. The
// SlowdownEnv knob pads the batch with synthetic extra ticks so the
// regression gate's trip wire is verifiable end to end.
func setupSchedulerTick(Config) (func(), error) {
	sch, err := newBenchScheduler()
	if err != nil {
		return nil, err
	}
	batch := tickInner
	if s := os.Getenv(SlowdownEnv); s != "" {
		frac, err := strconv.ParseFloat(s, 64)
		if err != nil || frac < 0 {
			return nil, fmt.Errorf("%s=%q: want a non-negative fraction", SlowdownEnv, s)
		}
		batch += int(frac * tickInner)
	}
	return func() {
		for i := 0; i < batch; i++ {
			sch.Tick()
		}
	}, nil
}

func schedulerDomain(Config) ([]Metric, error) {
	sch, err := newBenchScheduler()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 500; i++ {
		sch.Tick()
	}
	return []Metric{
		{Name: "toggles_500_ticks", Value: float64(sch.Toggles()), Gate: GateExact},
		{Name: "deadline_misses", Value: float64(sch.DeadlineMisses()), Gate: GateExact},
	}, nil
}

// newPacketPathConn is the simulator stack's layer rig: a two-path
// connection on constant traces (8 Mbps WiFi, 6 Mbps LTE), every segment
// crossing sim → link → tcp → mptcp and back as an ACK.
func newPacketPathConn() (*sim.Simulator, *mptcp.Conn, error) {
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("wifi", 8, 100*time.Millisecond, 1), RTT: 50 * time.Millisecond, Cost: 1, Primary: true},
		{Name: "lte", Rate: trace.Constant("lte", 6, 100*time.Millisecond, 1), RTT: 60 * time.Millisecond, Cost: 5},
	}})
	return s, conn, err
}

// setupPacketPath measures one delivered segment of a saturated transfer
// that never ends. The five virtual seconds before the measurement take
// both subflows through slow start's overshoot and first loss episode, so
// their free lists and the event queue have reached their size: from
// there a segment allocates nothing. The transfer starts ten virtual
// hours in because the per-path delivery meters keep one bucket per
// 100 ms since time zero: their first Add then sizes them for the next
// two and a half hours, where growing from empty would leave B/op an
// amortized-append sawtooth (≈ 0.6 B per segment ± 12 %) that no
// tolerance gate holds.
func setupPacketPath(Config) (func(), error) {
	s, conn, err := newPacketPathConn()
	if err != nil {
		return nil, err
	}
	s.AdvanceTo(10 * time.Hour)
	tr, err := conn.StartTransfer(1 << 50)
	if err != nil {
		return nil, err
	}
	s.Advance(5 * time.Second)
	batch := int64(packetInner * tcp.DefaultMSS)
	return func() {
		for target := tr.Delivered() + batch; tr.Delivered() < target; {
			s.Step()
		}
	}, nil
}

// packetPathDomain steps one 16 MiB transfer to completion: what arrived,
// when, in how many events and with how many window cuts are exact. The
// event heap's peak depth is the layer's cost driver — it follows the
// number of links (one entry per in-flight list), not of packets in
// flight — and may only fall.
func packetPathDomain(Config) ([]Metric, error) {
	s, conn, err := newPacketPathConn()
	if err != nil {
		return nil, err
	}
	tr, err := conn.StartTransfer(16 << 20)
	if err != nil {
		return nil, err
	}
	steps, peak := 0, 0
	for !tr.Done() {
		peak = max(peak, s.Pending())
		if s.Now() > time.Minute || !s.Step() {
			return nil, fmt.Errorf("sim_packet_path: transfer stalled at %d of %d bytes", tr.Delivered(), tr.Size())
		}
		steps++
	}
	var delivered, losses int64
	for _, p := range conn.Paths() {
		delivered += p.DeliveredBytes()
		losses += p.LossEvents()
	}
	return []Metric{
		{Name: "delivered_bytes", Value: float64(delivered), Gate: GateExact},
		{Name: "finish_virtual_ns", Value: float64(tr.CompletedAt()), Gate: GateExact},
		{Name: "loss_events", Value: float64(losses), Gate: GateExact},
		{Name: "steps", Value: float64(steps), Gate: GateExact},
		{Name: "peak_pending_events", Value: float64(peak), Gate: GateMax},
	}, nil
}

// hwSample is the synthetic throughput process fed to the predictor: a
// level shift plus a deterministic sawtooth, exercising both the level
// and trend terms.
func hwSample(i int) float64 {
	base := 20e6
	if i%97 > 48 {
		base = 8e6
	}
	return base + float64(i%13)*250e3
}

func setupHoltWinters(Config) (func(), error) {
	h := predict.NewDefaultHoltWinters()
	i := 0
	return func() {
		for k := 0; k < hwInner; k++ {
			h.Observe(hwSample(i))
			i++
		}
		_ = h.Predict()
	}, nil
}

func holtWintersDomain(Config) ([]Metric, error) {
	h := predict.NewDefaultHoltWinters()
	var absErr float64
	for i := 0; i < 500; i++ {
		if i > 0 {
			d := h.Predict() - hwSample(i)
			if d < 0 {
				d = -d
			}
			absErr += d
		}
		h.Observe(hwSample(i))
	}
	return []Metric{
		{Name: "forecast_bps", Value: h.Predict(), Gate: GateExact},
		{Name: "mae_bps", Value: absErr / 499, Gate: GateExact},
	}, nil
}

// knapsackInput is the fixed Table 2-shaped DP instance: two interfaces
// across 30 half-second slots, 4 MB demand, 4 KiB quantum.
func knapsackInput() (bw [][]float64, cost []float64, slot time.Duration, S, q int64) {
	const slots = 30
	bw = make([][]float64, 2)
	for i := range bw {
		bw[i] = make([]float64, slots)
		for j := 0; j < slots; j++ {
			bw[i][j] = 2e6 + float64((i+1)*(j%7))*300e3
		}
	}
	return bw, []float64{1, 5}, 500 * time.Millisecond, 4_000_000, 4096
}

func setupKnapsack(Config) (func(), error) {
	bw, cost, slot, S, q := knapsackInput()
	return func() {
		if _, err := core.MinCostSchedule(bw, cost, slot, S, q); err != nil {
			panic(err)
		}
	}, nil
}

func knapsackDomain(Config) ([]Metric, error) {
	bw, cost, slot, S, q := knapsackInput()
	plan, err := core.MinCostSchedule(bw, cost, slot, S, q)
	if err != nil {
		return nil, err
	}
	feasible := 0.0
	if plan.Feasible {
		feasible = 1
	}
	return []Metric{
		{Name: "plan_cost", Value: plan.Cost, Gate: GateExact},
		{Name: "cheap_iface_bytes", Value: plan.Bytes[0], Gate: GateExact},
		{Name: "feasible", Value: feasible, Gate: GateExact},
	}, nil
}

// setupHandleLookup measures the metric-handle acquisition path exactly
// as instrumented code hits it when re-resolving a labeled series:
// label-map literal, canonical render, registry lookup, counter add.
func setupHandleLookup(Config) (func(), error) {
	r := obs.NewRegistry()
	// Pre-register so the measured path is the steady-state lookup, not
	// first-use registration.
	r.Counter("mpdash_path_bytes_total", "bench", obs.Labels{"path": "wifi"})
	r.Counter("mpdash_path_bytes_total", "bench", obs.Labels{"path": "lte"})
	return func() {
		r.Counter("mpdash_path_bytes_total", "bench", obs.Labels{"path": "wifi"}).Add(1)
	}, nil
}

func setupHistogramObserve(Config) (func(), error) {
	r := obs.NewRegistry()
	h := r.Histogram("mpdash_chunk_duration_seconds", "bench", obs.DefSecondsBuckets, nil)
	i := 0
	return func() {
		for k := 0; k < observeInner; k++ {
			h.Observe(float64(i%40) * 0.02)
			i++
		}
	}, nil
}

// obsDomain pins down the exposition contract: fixed samples in, exact
// quantile estimates and byte-exact Prometheus rendering out.
func obsDomain(Config) ([]Metric, error) {
	r := obs.NewRegistry()
	c := r.Counter("bench_ops_total", "Ops.", obs.Labels{"kind": "domain"})
	h := r.Histogram("bench_seconds", "Durations.", obs.DefSecondsBuckets, nil)
	for i := 0; i < 1000; i++ {
		c.Inc()
		h.Observe(float64(i%40) * 0.02)
	}
	var sb countingWriter
	if err := r.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	return []Metric{
		{Name: "quantile_p50_s", Value: h.Quantile(0.50), Gate: GateExact},
		{Name: "quantile_p99_s", Value: h.Quantile(0.99), Gate: GateExact},
		{Name: "exposition_bytes", Value: float64(sb.n), Gate: GateExact},
	}, nil
}

// setupTraceDisabled measures the tracing call sites exactly as the
// fetch hot path hits them with tracing off: every method on the nil
// Tracer/Trace/Span handles must collapse to a pointer check. The
// baseline records 0 allocs/op, which benchgate holds as an exact
// zero-alloc contract.
func setupTraceDisabled(Config) (func(), error) {
	var tr *obs.Tracer
	return func() {
		for k := 0; k < traceInner; k++ {
			t := tr.StartTrace(0, k, 1)
			t.SetDeadline(time.Second)
			sp := t.StartSpan(obs.CatFetch, "fetch")
			sp.SetPath("wifi")
			sp.SetNum("size", 1)
			sp.End()
			t.Event(obs.CatRequeue, "requeue")
			t.Finish(obs.TraceOK)
		}
	}, nil
}

// traceChunkOp performs one synthetic chunk fetch — segment-sized FNV
// sweeps standing in for payload verification — traced through tr when
// non-nil. The compute dwarfs the tracing calls the way a real network
// fetch does, so the enabled-vs-disabled delta is a representative
// per-chunk overhead fraction.
func traceChunkOp(tr *obs.Tracer, buf []byte, chunk int) uint64 {
	const segs = 4
	t := tr.StartTrace(0, chunk, 1)
	t.SetDeadline(time.Second)
	fsp := t.StartSpan(obs.CatFetch, "fetch")
	fsp.SetNum("size", float64(len(buf)))
	sum := stats.FNVOffset
	segLen := len(buf) / segs
	for s := 0; s < segs; s++ {
		ssp := t.StartSpan(obs.CatSegment, "segment")
		ssp.SetPath("wifi")
		ssp.SetNum("seg", float64(s))
		for _, c := range buf[s*segLen : (s+1)*segLen] {
			sum = stats.FNVMix(sum, uint64(c))
		}
		ssp.End()
	}
	fsp.End()
	t.Finish(obs.TraceOK)
	return sum
}

func traceBenchBuf() []byte {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

// setupTraceChunk measures the traced chunk op with tracing enabled at
// head rate 0: healthy traces are dropped at Finish, so the kept set
// stays empty however long the benchmark runs.
func setupTraceChunk(Config) (func(), error) {
	tr := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0, Seed: 1})
	buf := traceBenchBuf()
	i := 0
	var sink uint64
	return func() {
		sink += traceChunkOp(tr, buf, i)
		i++
		_ = sink
	}, nil
}

// traceDomain pins the sampler's deterministic contract and holds the
// tracing-overhead bound: every bad trace kept, head sampling exactly
// reproducible from the seed, and the traced chunk op within 15% of the
// untraced one (trace_overhead_ok is 1 when the bound holds; the gate
// fails any run where the median trial says 0).
func traceDomain(Config) ([]Metric, error) {
	tr := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0.1, Seed: 42})
	for i := 0; i < 1000; i++ {
		t := tr.StartTrace(0, i, 1)
		if i%10 == 0 {
			t.SetDeadline(time.Millisecond)
			t.SetOverrun(time.Millisecond)
			t.Finish(obs.TraceMissed)
		} else {
			t.Finish(obs.TraceOK)
		}
	}
	st := tr.Stats()

	buf := traceBenchBuf()
	var sink uint64
	plain := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += traceChunkOp(nil, buf, i)
		}
	})
	etr := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0, Seed: 1})
	traced := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += traceChunkOp(etr, buf, i)
		}
	})
	_ = sink
	overhead := 0.0
	if plainNs := float64(plain.T.Nanoseconds()) / float64(plain.N); plainNs > 0 {
		tracedNs := float64(traced.T.Nanoseconds()) / float64(traced.N)
		overhead = (tracedNs - plainNs) / plainNs
	}
	ok := 0.0
	if overhead <= 0.15 {
		ok = 1
	}
	return []Metric{
		{Name: "kept_bad", Value: float64(st.KeptBad), Gate: GateExact},
		{Name: "kept_sampled", Value: float64(st.KeptSampled), Gate: GateExact},
		{Name: "dropped", Value: float64(st.Dropped), Gate: GateExact},
		{Name: "trace_overhead_frac", Value: overhead, Gate: GateInfo},
		{Name: "trace_overhead_ok", Value: ok, Gate: GateMin},
	}, nil
}

// benchCacheBody builds one deterministic n-byte payload.
func benchCacheBody(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + salt)
	}
	return b
}

// setupCacheGet measures the hit path — shard resolve, map lookup, LRU
// promote — over a fully resident key set.
func setupCacheGet(Config) (func(), error) {
	c := cache.New(cache.Config{CapacityBytes: 2 << 20, Shards: 8})
	keys := make([]cache.Key, 256)
	for i := range keys {
		keys[i] = cache.Key{Video: "bench", Level: i % 3, Chunk: i}
		if !c.Put(keys[i], benchCacheBody(4096, i)) {
			return nil, fmt.Errorf("perf: cache_get: key %d not admitted", i)
		}
	}
	i := 0
	return func() {
		for k := 0; k < cacheInner; k++ {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				panic("perf: cache_get: miss on a resident key")
			}
			i++
		}
	}, nil
}

// setupCachePut measures insertion under steady LRU eviction: the key
// set is twice the capacity, so every put soon pays one eviction.
func setupCachePut(Config) (func(), error) {
	c := cache.New(cache.Config{CapacityBytes: 1 << 20, Shards: 8})
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = benchCacheBody(4096, i)
	}
	i := 0
	return func() {
		for k := 0; k < cacheInner; k++ {
			c.Put(cache.Key{Video: "bench", Chunk: i % len(bodies)}, bodies[i%len(bodies)])
			i++
		}
	}, nil
}

// setupCacheSingleflight measures the uncontended leader path end to
// end: flight registration, an instant fill, admission, flight close.
// Every call uses a fresh key so it is always a miss.
func setupCacheSingleflight(Config) (func(), error) {
	c := cache.New(cache.Config{CapacityBytes: 1 << 20, Shards: 8})
	body := benchCacheBody(4096, 0)
	i := 0
	return func() {
		_, _, err := c.Fetch(cache.Key{Video: "bench", Chunk: i}, func() ([]byte, error) {
			return body, nil
		})
		if err != nil {
			panic(err)
		}
		i++
	}, nil
}

// cacheDomain pins the cache's behavioural contract with fixed work:
// a single-threaded LRU churn whose hit/miss/eviction counts are exact,
// then a 64-way concurrent miss that must collapse into exactly one
// fill. The concurrent split between collapsed waiters and late hits is
// scheduler-dependent, so only its invariants are gated exactly.
func cacheDomain(Config) ([]Metric, error) {
	// 150 keys × 16 KiB through a 1 MiB single-shard store (64 resident):
	// a cold sweep whose evictions are deterministic, then a re-read of
	// the resident LRU tail whose hits are too.
	c := cache.New(cache.Config{CapacityBytes: 1 << 20, Shards: 1})
	body := benchCacheBody(16<<10, 1)
	churnFetch := func(chunk int) error {
		_, _, err := c.Fetch(cache.Key{Video: "churn", Chunk: chunk}, func() ([]byte, error) {
			return body, nil
		})
		return err
	}
	for i := 0; i < 150; i++ {
		if err := churnFetch(i); err != nil {
			return nil, err
		}
	}
	for i := 100; i < 150; i++ {
		if err := churnFetch(i); err != nil {
			return nil, err
		}
	}
	churn := c.Stats()

	// 64 concurrent fetchers of one key: exactly one fill runs; every
	// other call either collapsed onto it or hit the cached result.
	cc := cache.New(cache.Config{CapacityBytes: 8 << 20})
	fillBody := benchCacheBody(64<<10, 2)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cc.Fetch(cache.Key{Video: "flash", Chunk: 7}, func() ([]byte, error) {
				time.Sleep(2 * time.Millisecond) // hold the flight open so waiters pile on
				return fillBody, nil
			})
			if err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	flash := cc.Stats()
	return []Metric{
		{Name: "churn_hits", Value: float64(churn.Hits), Gate: GateExact},
		{Name: "churn_misses", Value: float64(churn.Misses), Gate: GateExact},
		{Name: "churn_evictions", Value: float64(churn.Evictions), Gate: GateExact},
		{Name: "flash_fills_64_way", Value: float64(flash.Fills), Gate: GateExact},
		{Name: "flash_lookups", Value: float64(flash.Hits + flash.Misses), Gate: GateExact},
		{Name: "flash_collapsed", Value: float64(flash.Collapsed), Gate: GateInfo},
	}, nil
}

// countingWriter counts bytes without keeping them.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
