// Command mpdash-netfetch streams from a pair of mpdash-netserve
// listeners over real TCP sockets: it bootstraps the asset from the
// manifest, then plays chunks in real time with MP-DASH deadline
// governance (secondary socket engaged only under deadline pressure).
//
// The path supervisor's retry knobs are exposed so fault-injected
// sessions (see mpdash-netserve's -reset-prob and friends) can be tuned:
// I/O timeouts, backoff, redial and per-segment budgets.
//
// Each path accepts a ranked, comma-separated origin list; per-origin
// circuit breakers drive automatic failover, and slow segments are
// hedged to a backup origin when one is available. Ctrl-C ends the
// session gracefully after the in-flight chunk.
//
// Live telemetry is opt-in: -metrics-addr serves /metrics (Prometheus
// text), /debug/vars and pprof while the session runs, and -journal
// streams the structured decision journal as JSONL (render it later with
// mpdash-analyze -journal).
//
// Usage:
//
//	mpdash-netfetch -wifi 127.0.0.1:43210 -lte 127.0.0.1:43211 -chunks 10
//	mpdash-netfetch -wifi 10.0.0.1:80,10.0.0.2:80 -lte 10.0.1.1:80 -hedge-factor 3
//	mpdash-netfetch -wifi :43210 -lte :43211 -metrics-addr 127.0.0.1:9090 -journal session.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpdash/cmd/internal/cli"
	"mpdash/internal/abr"
	"mpdash/internal/netmp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpdash-netfetch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wifiAddrs = fs.String("wifi", "", "preferred-path origin address(es), comma-separated in preference order (required)")
		lteAddrs  = fs.String("lte", "", "secondary-path origin address(es), comma-separated in preference order (required)")
		chunks    = fs.Int("chunks", 10, "chunks to play")
		rateBase  = fs.Bool("rate", true, "rate-based deadlines (false = duration-based)")

		ioTimeoutMs = fs.Int("io-timeout-ms", 2000, "per-I/O deadline on path sockets")
		retryBaseMs = fs.Int("retry-base-ms", 50, "base retry backoff")
		retryMaxMs  = fs.Int("retry-max-ms", 2000, "backoff ceiling")
		segBudget   = fs.Int("segment-budget", 3, "attempts per segment per path before requeueing")
		maxRedials  = fs.Int("max-redials", 5, "consecutive failed redials before a path is declared down")

		brkWindow     = fs.Int("breaker-window", 16, "per-origin breaker rolling sample window")
		brkErrRate    = fs.Float64("breaker-error-rate", 0.5, "windowed error rate that opens an origin breaker")
		brkCooldownMs = fs.Int("breaker-cooldown-ms", 1000, "open-breaker cooldown before a half-open probe")

		hedge         = fs.Bool("hedge", true, "hedge slow segments to a backup origin when one exists")
		hedgeFactor   = fs.Float64("hedge-factor", 2, "pace multiple of the predicted service time that arms a hedge")
		hedgeBudgetKB = fs.Int64("hedge-budget-kb", 4096, "session budget of payload bytes wasted on hedge losers")

		abort            = fs.Bool("abort", false, "abort doomed chunks (predicted deadline miss even with all paths engaged) and downgrade the rendition")
		abortFactor      = fs.Float64("abort-factor", 1, "doom-test scale: abort when best-case finish exceeds this multiple of the remaining window")
		abortMinProgress = fs.Float64("abort-min-progress", 0.25, "fraction of the deadline window that must elapse before the first doom evaluation")

		telemetry = cli.AddTelemetry(fs, stdout)
		tracing   = cli.AddTracing(fs, 1)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	wifi := netmp.SplitOrigins(*wifiAddrs)
	lte := netmp.SplitOrigins(*lteAddrs)
	if len(wifi) == 0 || len(lte) == 0 {
		fs.Usage()
		return 2
	}
	infof := telemetry.Infof

	video, sizes, err := netmp.FetchManifest(wifi[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	infof("manifest: %d chunks × %v, %d levels (top %.2f Mbps)\n",
		video.NumChunks, video.ChunkDuration, len(video.Levels),
		video.Levels[video.HighestLevel()].AvgBitrateMbps)

	brk := netmp.BreakerPolicy{
		Window:        *brkWindow,
		TripErrorRate: *brkErrRate,
		Cooldown:      time.Duration(*brkCooldownMs) * time.Millisecond,
	}
	f, err := netmp.NewFetcherOrigins(video, brk, wifi, lte)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	f.Sizes = sizes // manifest sizes are authoritative
	f.Retry = netmp.RetryPolicy{
		IOTimeout:     time.Duration(*ioTimeoutMs) * time.Millisecond,
		BaseBackoff:   time.Duration(*retryBaseMs) * time.Millisecond,
		MaxBackoff:    time.Duration(*retryMaxMs) * time.Millisecond,
		SegmentBudget: *segBudget,
		MaxRedials:    *maxRedials,
	}
	f.Hedge = netmp.HedgePolicy{
		Disabled:    !*hedge,
		Factor:      *hedgeFactor,
		BudgetBytes: *hedgeBudgetKB * 1024,
	}
	f.Abort = netmp.AbortPolicy{
		Enabled:     *abort,
		Factor:      *abortFactor,
		MinProgress: *abortMinProgress,
	}

	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: *rateBase}

	tel, closeTel, err := telemetry.Open()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer closeTel()
	st.Instrument(tel)
	st.Tracer = tracing.Tracer(0)
	cli.OnInterrupt(stderr, "finishing in-flight chunk, then stopping", st.Stop)

	res, err := st.Stream(*chunks)
	// Export even after a failed session: the bad traces are the
	// interesting ones.
	if terr := tracing.Export(st.Tracer, infof); terr != nil {
		fmt.Fprintln(stderr, "mpdash-netfetch:", terr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if res == nil {
			return 1
		}
		infof("partial session before failure:\n")
	}
	if res.Stopped {
		infof("stopped by signal after %d chunks\n", res.Chunks)
	}
	total := res.PrimaryBytes + res.SecondaryBytes
	infof("played %d chunks in %v\n", res.Chunks, res.Wall.Round(time.Millisecond))
	if total > 0 {
		infof("wifi %0.1f MB, lte %0.1f MB (%.1f%% on the secondary)\n",
			float64(res.PrimaryBytes)/1e6, float64(res.SecondaryBytes)/1e6,
			100*float64(res.SecondaryBytes)/float64(total))
	}
	infof("stalls %d (%.2fs), avg level %.2f, switches %d, verified=%v\n",
		res.Stalls, res.StallTime.Seconds(), res.AvgLevel, res.QualitySwitches, res.AllVerified)
	if res.FaultsSurvived > 0 || res.Redials > 0 || res.LostChunks > 0 {
		infof("faults survived %d (retries %d, requeued %d), redials %d, refetches %d, lost chunks %d\n",
			res.FaultsSurvived, res.Retries, res.Requeued, res.Redials, res.Refetches, res.LostChunks)
		infof("wasted %0.1f KB, degraded %v\n",
			float64(res.WastedBytes)/1e3, res.DegradedTime.Round(time.Millisecond))
	}
	if res.Aborts > 0 {
		infof("doomed aborts %d, downgrades %d, abandoned %0.1f KB\n",
			res.Aborts, res.Downgrades, float64(res.AbortWastedBytes)/1e3)
	}
	if res.Failovers > 0 || res.HedgesIssued > 0 {
		infof("origin failovers %d; hedges issued %d, won %d, cancelled %d, wasted %0.1f KB\n",
			res.Failovers, res.HedgesIssued, res.HedgesWon, res.HedgesCancelled,
			float64(res.HedgeWastedBytes)/1e3)
	}
	for _, ps := range f.PathStats() {
		infof("path %-9s %-8s bytes=%d retries=%d redials=%d reconnects=%d origin=%s\n",
			ps.Name, ps.State, ps.Bytes, ps.Retries, ps.Redials, ps.Reconnects, ps.Origin)
		if len(ps.Origins) > 1 {
			for _, o := range ps.Origins {
				mark := " "
				if o.Current {
					mark = "*"
				}
				infof("  %s origin %-21s breaker=%-9s trips=%d\n", mark, o.Addr, o.State, o.Trips)
			}
		}
	}
	if err != nil {
		return 1
	}
	return 0
}
