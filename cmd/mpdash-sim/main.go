// Command mpdash-sim runs a single MP-DASH streaming session in the
// packet-level simulator and prints its report.
//
// Usage:
//
//	mpdash-sim -wifi 3.8 -lte 3.0 -algo FESTIVE -scheme mpdash-rate -chunks 150
//	mpdash-sim -wifi-stability 0.5 -scheme baseline   # field-style WiFi
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpdash"
	"mpdash/internal/analysis"
	"mpdash/internal/dash"
	"mpdash/internal/harness"
	"mpdash/internal/trace"
)

func main() {
	var (
		wifiMbps  = flag.Float64("wifi", 3.8, "WiFi average bandwidth (Mbps)")
		lteMbps   = flag.Float64("lte", 3.0, "LTE average bandwidth (Mbps)")
		stability = flag.Float64("wifi-stability", 1.0, "WiFi stability in [0,1]; 1 = constant rate")
		seed      = flag.Int64("seed", 42, "trace seed")
		algo      = flag.String("algo", "FESTIVE", "rate adaptation: GPAC|FESTIVE|BBA|BBA-C|MPC")
		scheme    = flag.String("scheme", "mpdash-rate", "baseline|mpdash-rate|mpdash-duration|wifi-only|throttle-lte")
		throttle  = flag.Float64("throttle", 0.7, "LTE cap in Mbps for -scheme throttle-lte")
		chunks    = flag.Int("chunks", 150, "chunks to play (0 = whole video)")
		videoName = flag.String("video", "Big Buck Bunny", "video from the Table 3 catalogue")
		rr        = flag.Bool("roundrobin", false, "use the round-robin MPTCP scheduler")
		viz       = flag.Bool("viz", false, "print the Figure-8 chunk visualization")
		report    = flag.String("report", "", "write a markdown session report to this file")
	)
	flag.Parse()

	schemes := map[string]mpdash.Scheme{
		"baseline":        mpdash.Baseline,
		"mpdash-rate":     mpdash.MPDashRate,
		"mpdash-duration": mpdash.MPDashDuration,
		"wifi-only":       mpdash.WiFiOnly,
		"throttle-lte":    mpdash.ThrottleLTE,
	}
	sch, ok := schemes[*scheme]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	video, err := dash.Lookup(*videoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var wifi *mpdash.Trace
	if *stability >= 1 {
		wifi = trace.Constant("wifi", *wifiMbps, time.Second, 1)
	} else {
		wifi = trace.Field("wifi", *wifiMbps, *stability, 100*time.Millisecond, 12000, *seed)
	}
	cfg := mpdash.SessionConfig{
		WiFi:         wifi,
		LTE:          trace.Constant("lte", *lteMbps, time.Second, 1),
		Video:        video,
		Algorithm:    mpdash.Algorithm(*algo),
		Scheme:       sch,
		ThrottleMbps: *throttle,
		Chunks:       *chunks,
	}
	if *rr {
		cfg.Scheduler = mpdash.RoundRobin
	}
	res, err := mpdash.RunSession(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rep := res.Report
	fmt.Printf("video: %s  algorithm: %s  scheme: %s  scheduler: %s\n",
		rep.VideoName, rep.Algorithm, harness.Scheme(sch), cfg.Scheduler)
	fmt.Printf("chunks: %d  wall: %.1fs\n", rep.Chunks, res.Wall.Seconds())
	fmt.Printf("avg bitrate: %.2f Mbps (steady-state %.2f)\n", rep.AvgBitrateMbps, rep.SteadyStateAvgBitrateMbps)
	fmt.Printf("stalls: %d (%.2fs)  quality switches: %d\n", rep.Stalls, rep.StallTime.Seconds(), rep.QualitySwitches)
	fmt.Printf("steady-state bytes: wifi %.2f MB, lte %.2f MB (%.1f%% cellular)\n",
		float64(rep.SteadyStatePathBytes["wifi"])/1e6, float64(rep.SteadyStatePathBytes["lte"])/1e6,
		rep.CellularFraction("lte")*100)
	fmt.Printf("radio energy: %.1f J (LTE %.1f, WiFi %.1f)\n",
		res.RadioJ(), res.Energy.LTE.TotalJ(), res.Energy.WiFi.TotalJ())
	if res.Governed+res.Skipped > 0 {
		fmt.Printf("mp-dash: %d chunks governed, %d skipped, %d deadline misses\n",
			res.Governed, res.Skipped, res.DeadlineMisses)
	}
	m := analysis.Analyze(rep, "wifi")
	fmt.Printf("analysis: %s\n", m)
	if *viz {
		fmt.Println()
		fmt.Print(analysis.RenderChunksASCII(rep, "lte", 2))
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = analysis.WriteMarkdown(f, rep, res.RadioJ())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *report)
	}
}
