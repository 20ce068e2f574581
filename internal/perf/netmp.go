package perf

// The "netmp" suite: macro scenarios over real sockets on loopback. A
// trial is one full run of the scenario. Byte and count metrics are
// exact — chunk payloads are deterministic functions of (video seed,
// index, level) — while timing-derived metrics carry max gates with
// slack, because loopback scheduling is real.

import (
	"errors"
	"runtime"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
)

func netmpScenarios() []*scenario {
	return []*scenario{
		{name: "netmp_session_fetch", domain: runSessionFetch},
		{name: "netmp_chunk_path", domain: runChunkPath},
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
// deadline.
func runSessionFetch() ([]Metric, error) {
	const chunks = 24
	video := benchVideo(chunks)
	level := video.HighestLevel()

	wifi, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return nil, err
	}
	defer wifi.Close()
	lte, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return nil, err
	}
	defer lte.Close()

	f, err := netmp.NewFetcher(video, wifi.Addr(), lte.Addr())
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var wantBytes, gotBytes, cellBytes int64
	var misses, unverified int
	var retries int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chunks; i++ {
		wantBytes += video.ChunkSize(i, level)
		res, err := f.FetchChunk(i, level, 2*time.Second)
		if err != nil {
			return nil, err
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
	runtime.ReadMemStats(&after)

	cellShare := 0.0
	if gotBytes > 0 {
		cellShare = float64(cellBytes) / float64(gotBytes)
	}
	return []Metric{
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
	}, nil
}

// runChunkPath is the wire-path scenario: a one-connection fetcher
// pulls every chunk of the asset over loopback, first from an origin and
// then from an edge serving hits out of a prefilled store, once in 4 KiB
// range requests (about 19 a chunk) and once in a single request per
// chunk. The process-wide heap allocation count of the two passes
// differs by what the extra range requests cost — client and server side
// together — and the contract is that they cost nothing.
func runChunkPath() ([]Metric, error) {
	const passes = 4
	video := benchVideo(16)
	level := video.HighestLevel()

	origin, err := netmp.NewChunkServer(video, 0)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer edge.Close()

	const split = 4 * 1024
	var extra int64 // range requests a split sweep makes beyond one per chunk
	for c := 0; c < video.NumChunks; c++ {
		extra += (video.ChunkSize(c, level)+split-1)/split - 1
	}
	extra *= int64(passes)

	var bytesTotal int64
	var perRange [2]float64
	for t, addr := range []string{origin.Addr(), edge.Addr()} {
		f, err := netmp.NewFetcher(video, addr)
		if err != nil {
			return nil, err
		}
		defer f.Close()
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
			return nil, err
		}
		many, err := sweep(split, passes)
		if err != nil {
			return nil, err
		}
		one, err := sweep(1<<30, passes)
		if err != nil {
			return nil, err
		}
		// Truncating, as testing's AllocsPerOp is: stray runtime
		// allocations amortised over hundreds of requests are not a
		// per-request cost.
		if many > one {
			perRange[t] = float64(int64(many-one) / extra)
		}
	}
	ranges := 2 * (extra + int64(passes*video.NumChunks)) // both tiers' split sweeps
	return []Metric{
		{Name: "range_requests", Value: float64(ranges), Gate: GateExact},
		{Name: "bytes_total", Value: float64(bytesTotal), Gate: GateExact},
		{Name: "edge_origin_bytes", Value: float64(edge.OriginBytes()), Gate: GateExact},
		{Name: "allocs_per_range_origin", Value: perRange[0], Gate: GateMax},
		{Name: "allocs_per_range_edge_hit", Value: perRange[1], Gate: GateMax},
	}, nil
}
