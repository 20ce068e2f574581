// Command mpdash-netserve runs real-socket DASH chunk servers — one
// rate-shaped listener per emulated path — for use with mpdash-netfetch
// (possibly from another process or machine). It serves the Table 3
// catalogue's Big Buck Bunny with its MPD at /manifest.mpd.
//
// A fault plan can be attached to either listener to rehearse hostile
// networks: scripted or probabilistic connection resets, mid-body
// stalls, premature closes, payload corruption, and blackout windows.
//
// With -metrics-addr the process serves /metrics (per-listener served
// bytes, active connections, injected-fault and overload counters),
// /debug/vars and pprof; -journal streams drain/reject events as JSONL.
//
// Usage:
//
//	mpdash-netserve -wifi-mbps 4 -lte-mbps 12
//	mpdash-netserve -fault-path wifi -reset-prob 0.05 -blackouts 20s:5s
//	mpdash-netserve -metrics-addr 127.0.0.1:9091 -journal serve.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpdash/cmd/internal/cli"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpdash-netserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wifiMbps  = fs.Float64("wifi-mbps", 4.0, "shaped rate of the WiFi-role listener")
		lteMbps   = fs.Float64("lte-mbps", 12.0, "shaped rate of the LTE-role listener")
		videoName = fs.String("video", "Big Buck Bunny", "video from the Table 3 catalogue")

		faultPath   = fs.String("fault-path", "wifi", "listener the fault plan applies to: wifi, lte, or both")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for the fault probability draws (deterministic replay)")
		resetProb   = fs.Float64("reset-prob", 0, "per-request probability of a connection reset")
		stallProb   = fs.Float64("stall-prob", 0, "per-request probability of a mid-body stall")
		closeProb   = fs.Float64("close-prob", 0, "per-request probability of a premature close")
		corruptProb = fs.Float64("corrupt-prob", 0, "per-request probability of payload corruption")
		stallMs     = fs.Int("stall-ms", 2000, "duration of injected stalls")
		blackouts   = fs.String("blackouts", "", "blackout windows as start:duration[,start:duration...] e.g. 8s:3s,40s:5s")

		maxConns   = fs.Int("max-conns", 0, "per-listener concurrent connection cap; excess get 503 (0 = unlimited)")
		maxReqConn = fs.Int("max-requests-per-conn", 0, "requests served per connection before it is closed (0 = unlimited)")

		telemetry = cli.AddTelemetry(fs, stdout)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	video, err := dash.Lookup(*videoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	windows, err := netmp.ParseBlackouts(*blackouts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var plan *netmp.FaultPlan
	if *resetProb > 0 || *stallProb > 0 || *closeProb > 0 || *corruptProb > 0 || len(windows) > 0 {
		plan = &netmp.FaultPlan{
			Seed:        *faultSeed,
			ResetProb:   *resetProb,
			StallProb:   *stallProb,
			CloseProb:   *closeProb,
			CorruptProb: *corruptProb,
			StallFor:    time.Duration(*stallMs) * time.Millisecond,
			Blackouts:   windows,
		}
	}
	wifiPlan, ltePlan := plan, plan
	switch *faultPath {
	case "wifi":
		ltePlan = nil
	case "lte":
		wifiPlan = nil
	case "both":
	default:
		fmt.Fprintf(stderr, "unknown -fault-path %q (want wifi, lte, or both)\n", *faultPath)
		return 2
	}

	wifiSrv, err := netmp.NewChunkServerWithFaults(video, *wifiMbps, wifiPlan)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer wifiSrv.Close()
	lteSrv, err := netmp.NewChunkServerWithFaults(video, *lteMbps, ltePlan)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer lteSrv.Close()
	limits := netmp.ServerLimits{MaxConns: *maxConns, MaxRequestsPerConn: *maxReqConn}
	wifiSrv.SetLimits(limits)
	lteSrv.SetLimits(limits)

	infof := telemetry.Infof
	tel, closeTel, err := telemetry.Open()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer closeTel()
	wifiSrv.Instrument(tel)
	lteSrv.Instrument(tel)

	infof("serving %q\n", video.Name)
	infof("wifi path: %s (%.1f Mbps)%s\n", wifiSrv.Addr(), *wifiMbps, planTag(wifiPlan))
	infof("lte  path: %s (%.1f Mbps)%s\n", lteSrv.Addr(), *lteMbps, planTag(ltePlan))
	infof("\nfetch with:\n  mpdash-netfetch -wifi %s -lte %s\n", wifiSrv.Addr(), lteSrv.Addr())
	infof("\nCtrl-C to stop\n")

	cli.WaitInterrupt()
	// Graceful drain: stop accepting, let in-flight bodies finish.
	infof("\ndraining...\n")
	wifiSrv.Drain()
	lteSrv.Drain()
	infof("served %d + %d payload bytes\n", wifiSrv.ServedBytes(), lteSrv.ServedBytes())
	if plan != nil {
		infof("faults injected: wifi %s | lte %s\n", wifiSrv.FaultStats(), lteSrv.FaultStats())
	}
	for _, s := range []struct {
		name string
		srv  *netmp.ChunkServer
	}{{"wifi", wifiSrv}, {"lte", lteSrv}} {
		ov := s.srv.OverloadStats()
		if ov.RejectedConns > 0 || ov.CappedConns > 0 || ov.PanicsRecovered > 0 || ov.AcceptRetries > 0 {
			infof("overload %s: rejected=%d capped=%d panics=%d accept-retries=%d\n",
				s.name, ov.RejectedConns, ov.CappedConns, ov.PanicsRecovered, ov.AcceptRetries)
		}
	}
	return 0
}

func planTag(p *netmp.FaultPlan) string {
	if p == nil {
		return ""
	}
	return " [faulty]"
}
