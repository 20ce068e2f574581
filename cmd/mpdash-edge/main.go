// Command mpdash-edge runs a cache-tier front over a ranked set of
// mpdash-netserve origins. It serves the same minimal HTTP/1.1 range
// protocol the origins speak, answers hits from a sharded in-process
// chunk cache, collapses concurrent misses for the same chunk into one
// origin fill (singleflight), and stamps every response with an
// "X-MPDash-Cache: hit|miss" header; a client's trace spans name the
// misses' origin-fill time.
//
// With -metrics-addr the process serves /metrics (cache_* hit/miss/
// eviction/collapse counters, per-edge served- and origin-byte
// counters), /debug/vars and pprof; -journal streams cache.* events as
// JSONL.
//
// Usage:
//
//	mpdash-edge -origins 127.0.0.1:40001,127.0.0.1:40002
//	mpdash-edge -origins 127.0.0.1:40001 -cache-mb 128 -rate-mbps 40
//	mpdash-edge -origins 127.0.0.1:40001 -metrics-addr 127.0.0.1:9092 -journal edge.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpdash/cmd/internal/cli"
	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpdash-edge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		origins   = fs.String("origins", "", "comma-separated ranked origin addresses (required)")
		videoName = fs.String("video", "Big Buck Bunny", "video from the Table 3 catalogue (must match the origins)")

		cacheMB  = fs.Int("cache-mb", 64, "chunk-store capacity in MiB")
		shards   = fs.Int("cache-shards", 0, "cache shard count (0 = default)")
		maxLevel = fs.Int("cache-max-level", -1, "highest rendition level admitted to the store (-1 = all)")
		minSeen  = fs.Int("cache-min-seen", 1, "demands for a chunk before it enters the main store; earlier fills wait in the admission window (doorkeeper; 1 = admit first fill)")

		rateMbps = fs.Float64("rate-mbps", 0, "shaped rate of the client-facing downlink (0 = unshaped)")
		fillers  = fs.Int("fill-fetchers", 2, "pooled origin fetchers bounding concurrent distinct-chunk fills")
		fillSecs = fs.Float64("fill-window", 15, "deadline window in seconds for each whole-chunk origin fill")

		telemetry = cli.AddTelemetry(fs, stdout)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	originList := netmp.SplitOrigins(*origins)
	if len(originList) == 0 {
		fmt.Fprintln(stderr, "need -origins (comma-separated ranked origin addresses)")
		return 2
	}

	video, err := dash.Lookup(*videoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	store := cache.New(cache.Config{
		CapacityBytes: int64(*cacheMB) << 20,
		Shards:        *shards,
		Levels:        *maxLevel + 1, // levels 0..max; -1 gives 0, every level
		MinSeen:       *minSeen,
	})
	edge, err := netmp.NewEdgeServer(video, video.Name, originList, store, netmp.EdgePolicy{
		RateMbps:     *rateMbps,
		FillFetchers: *fillers,
		FillWindow:   time.Duration(*fillSecs * float64(time.Second)),
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer edge.Close()

	infof := telemetry.Infof
	tel, closeTel, err := telemetry.Open()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer closeTel()
	store.Instrument(tel)
	edge.Instrument(tel)

	infof("edge for %q: %s (cache %d MiB over %v)\n", video.Name, edge.Addr(), *cacheMB, originList)
	infof("\nfetch with:\n  mpdash-netfetch -wifi %s -lte %s\n", edge.Addr(), edge.Addr())
	infof("\nCtrl-C to stop\n")

	cli.WaitInterrupt()
	st := store.Stats()
	infof("\nserved %d payload bytes, %d from origins", edge.ServedBytes(), edge.OriginBytes())
	if s := edge.ServedBytes(); s > 0 {
		infof(" (offload %.2f)", 1-float64(edge.OriginBytes())/float64(s))
	}
	infof("\ncache: %d hits, %d misses (%d collapsed), %d evictions, %d entries / %d bytes resident\n",
		st.Hits, st.Misses, st.Collapsed, st.Evictions, st.Entries, st.Bytes)
	if fe := edge.FillErrors(); fe > 0 {
		infof("fill errors: %d\n", fe)
	}
	return 0
}
