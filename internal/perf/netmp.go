package perf

// The "netmp" suite: macro scenarios over real sockets on loopback. A
// trial is one full run of the scenario; ns/op is injected-clock wall
// time over the scenario's unit of work (chunks, sessions). Byte and
// count metrics are exact — chunk payloads are deterministic functions
// of (video seed, index, level) — while timing-derived metrics carry
// max/min gates with slack, because loopback scheduling is real.

import (
	"context"
	"errors"
	"runtime"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/swarm"
)

func netmpScenarios() []*scenario {
	return []*scenario{
		{name: "netmp_session_fetch", run: runSessionFetch},
		{name: "netmp_swarm", run: runSwarm},
		{name: "netmp_chunk_path", run: runChunkPath},
	}
}

// benchVideo is the fixed asset of the single-session scenario.
func benchVideo(chunks int) *dash.Video {
	return &dash.Video{
		Name:          "perf-bench",
		ChunkDuration: 250 * time.Millisecond,
		NumChunks:     chunks,
		SizeSeed:      0x5eed,
		Levels: []dash.Level{
			{ID: 1, AvgBitrateMbps: 1.0},
			{ID: 2, AvgBitrateMbps: 2.5},
		},
	}
}

// runSessionFetch is the real-socket single-session scenario: two
// unshaped loopback origins (one per path), a supervised dual-socket
// fetcher, every chunk fetched at the top level with a generous
// deadline. All wall time routes through cfg.Clock.
func runSessionFetch(cfg Config) (time.Duration, int, []Metric, error) {
	chunks := 24
	if cfg.Quick {
		chunks = 4
	}
	video := benchVideo(chunks)
	level := video.HighestLevel()

	wifi, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	defer wifi.Close()
	lte, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	defer lte.Close()

	f, err := netmp.NewFetcher(video, wifi.Addr(), lte.Addr())
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	f.SetClock(cfg.Clock)

	var wantBytes, gotBytes, cellBytes int64
	var misses, unverified int
	var retries int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := cfg.Clock.Now()
	for i := 0; i < chunks; i++ {
		wantBytes += video.ChunkSize(i, level)
		res, err := f.FetchChunk(i, level, 2*time.Second)
		if err != nil {
			return 0, 0, nil, err
		}
		gotBytes += res.PrimaryBytes + res.SecondaryBytes
		cellBytes += res.SecondaryBytes
		retries += res.Retries
		if res.MissedBy > 0 {
			misses++
		}
		if !res.Verified {
			unverified++
		}
	}
	wall := cfg.Clock.Now().Sub(start)
	runtime.ReadMemStats(&after)

	cellShare := 0.0
	if gotBytes > 0 {
		cellShare = float64(cellBytes) / float64(gotBytes)
	}
	metrics := []Metric{
		{Name: "chunks", Value: float64(chunks), Gate: GateExact},
		{Name: "bytes_total", Value: float64(gotBytes), Gate: GateExact},
		{Name: "bytes_expected_delta", Value: float64(gotBytes - wantBytes), Gate: GateExact},
		{Name: "unverified_chunks", Value: float64(unverified), Gate: GateExact},
		{Name: "deadline_miss_rate", Value: float64(misses) / float64(chunks), Gate: GateMax, Abs: 0.25},
		{Name: "cellular_byte_share", Value: cellShare, Gate: GateInfo},
		{Name: "retries", Value: float64(retries), Gate: GateInfo},
		// Process-wide heap allocations per FetchChunk, truncated as
		// netmp_chunk_path's rows are: the fetch engine's own cost per
		// chunk is its result, with no goroutine, closure or timer.
		{Name: "allocs_per_chunk", Value: float64(int64(after.Mallocs-before.Mallocs) / int64(chunks)), Gate: GateMax, Abs: 2},
	}
	return wall, chunks, metrics, nil
}

// swarmScenario declares the population macro run: a seeded Poisson
// arrival of heterogeneous sessions against a shared loopback tier.
func swarmScenario(quick bool) swarm.Scenario {
	sessions, over := 64, 2*time.Second
	if quick {
		sessions, over = 8, 300*time.Millisecond
	}
	return swarm.Scenario{
		Name:     "perf-bench",
		Sessions: sessions,
		Arrival:  swarm.Arrival{Kind: swarm.ArrivalPoisson, Over: swarm.Duration(over)},
		Seed:     7,
	}
}

// runSwarm is the population scenario: 64 concurrent real-socket
// MP-DASH sessions (8 under Quick). Plan-level quantities (sessions)
// are exact; outcome counters that depend on host scheduling carry
// slack.
func runSwarm(cfg Config) (time.Duration, int, []Metric, error) {
	sw, err := swarm.New(swarmScenario(cfg.Quick))
	if err != nil {
		return 0, 0, nil, err
	}
	start := cfg.Clock.Now()
	rep, err := sw.Run(context.Background())
	if err != nil {
		return 0, 0, nil, err
	}
	wall := cfg.Clock.Now().Sub(start)
	if rep.Sessions == 0 {
		return 0, 0, nil, errors.New("swarm launched no sessions")
	}
	metrics := []Metric{
		{Name: "sessions", Value: float64(rep.Sessions), Gate: GateExact},
		{Name: "ledger_violations", Value: float64(rep.LedgerViolations), Gate: GateExact},
		{Name: "panicked", Value: float64(rep.Panicked), Gate: GateExact},
		{Name: "completed", Value: float64(rep.Completed), Gate: GateMin, Abs: 4},
		{Name: "deadline_miss_rate", Value: rep.DeadlineMissRate, Gate: GateMax, Abs: 0.25},
		{Name: "chunks", Value: float64(rep.Chunks), Gate: GateInfo},
		{Name: "cellular_byte_share", Value: rep.CellularByteShare, Gate: GateInfo},
		{Name: "stalls", Value: float64(rep.Stalls), Gate: GateInfo},
		// Swarm throughput (sessions' chunks landed per wall second): the
		// scale north star. Wide relative tolerance because loopback
		// scheduling varies across hosts; the CI bench job additionally
		// applies an absolute floor via benchgate -min-throughput. Zero
		// under a frozen clock (wall collapses), where it is meaningless
		// and the min gate of a zero baseline never trips.
		{Name: "throughput_chunks_per_s", Value: swarmThroughput(rep.Chunks, wall), Gate: GateMin, Tol: 0.6},
	}
	return wall, rep.Sessions, metrics, nil
}

// swarmThroughput computes chunks landed per wall second, 0 when the
// (possibly frozen) clock measured no elapsed time.
func swarmThroughput(chunks int, wall time.Duration) float64 {
	if s := wall.Seconds(); s > 0 {
		return float64(chunks) / s
	}
	return 0
}

// runChunkPath is the wire-path scenario: a one-connection fetcher
// pulls every chunk of the asset over loopback, first from an origin and
// then from an edge serving hits out of a prefilled store, once in 4 KiB
// range requests (about 19 a chunk) and once in a single request per
// chunk. ns/op is wall time per range request of the split passes. The
// process-wide heap allocation count of the two passes differs by what
// the extra range requests cost — client and server side together — and
// the contract is that they cost nothing.
func runChunkPath(cfg Config) (time.Duration, int, []Metric, error) {
	passes := 4
	if cfg.Quick {
		passes = 1
	}
	video := benchVideo(16)
	level := video.HighestLevel()

	origin, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	defer origin.Close()
	store := cache.New(cache.Config{})
	for c := 0; c < video.NumChunks; c++ {
		body := make([]byte, video.ChunkSize(c, level))
		for i := range body {
			body[i] = netmp.ChunkBody(c, level, int64(i))
		}
		store.Put(cache.Key{Video: video.Name, Level: level, Chunk: c}, body)
	}
	edge, err := netmp.NewEdgeServer(video, video.Name, []string{origin.Addr()}, store, netmp.EdgePolicy{})
	if err != nil {
		return 0, 0, nil, err
	}
	defer edge.Close()

	const split = 4 * 1024
	var extra int64 // range requests a split sweep makes beyond one per chunk
	for c := 0; c < video.NumChunks; c++ {
		extra += (video.ChunkSize(c, level)+split-1)/split - 1
	}
	extra *= int64(passes)

	var wall time.Duration
	var bytesTotal int64
	var perRange [2]float64
	for t, addr := range []string{origin.Addr(), edge.Addr()} {
		f, err := netmp.NewFetcher(video, addr)
		if err != nil {
			return 0, 0, nil, err
		}
		defer f.Close()
		f.SetClock(cfg.Clock)
		// sweep fetches the asset n times at one segment size and returns
		// the heap allocations that took, process-wide.
		sweep := func(segSize int64, n int) (mallocs uint64, err error) {
			f.SegmentSize = segSize
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n*video.NumChunks; i++ {
				res, err := f.FetchChunk(i%video.NumChunks, level, 10*time.Second)
				if err != nil {
					return 0, err
				}
				if !res.Verified {
					return 0, errors.New("unverified chunk")
				}
				bytesTotal += res.PrimaryBytes
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, nil
		}
		if _, err := sweep(split, 1); err != nil { // warm pools and buffers
			return 0, 0, nil, err
		}
		start := cfg.Clock.Now()
		many, err := sweep(split, passes)
		if err != nil {
			return 0, 0, nil, err
		}
		wall += cfg.Clock.Now().Sub(start)
		one, err := sweep(1<<30, passes)
		if err != nil {
			return 0, 0, nil, err
		}
		// Truncating, as testing's AllocsPerOp is: stray runtime
		// allocations amortised over hundreds of requests are not a
		// per-request cost.
		if many > one {
			perRange[t] = float64(int64(many-one) / extra)
		}
	}
	ranges := 2 * (extra + int64(passes*video.NumChunks)) // timed: both tiers' split sweeps
	metrics := []Metric{
		{Name: "range_requests", Value: float64(ranges), Gate: GateExact},
		{Name: "bytes_total", Value: float64(bytesTotal), Gate: GateExact},
		{Name: "edge_origin_bytes", Value: float64(edge.OriginBytes()), Gate: GateExact},
		{Name: "allocs_per_range_origin", Value: perRange[0], Gate: GateMax},
		{Name: "allocs_per_range_edge_hit", Value: perRange[1], Gate: GateMax},
	}
	return wall, int(ranges), metrics, nil
}
