// Command mpdash-benchgate gates a swarm population report: it checks a
// BENCH_swarm.json written by mpdash-swarm against absolute thresholds,
// prints one row per criterion, and exits non-zero when any fails. CI
// runs it after every population run; DESIGN.md §11 documents the
// policy. (Allocation counts and deterministic results are ordinary
// tests in the packages they measure.)
//
// Usage:
//
//	mpdash-benchgate -swarm BENCH_swarm.json -max-miss-rate 0.10
//	    gate the report against absolute thresholds (ledger
//	    violations, panics, deadline-miss rate).
//	mpdash-benchgate -swarm BENCH_swarm.json -max-mttr-p95 5
//	    additionally gate chaos recovery: the report must carry an
//	    executed chaos timeline, every event must have recovered, and the
//	    population's p95 MTTR must sit at or under the bound (seconds).
//	    An audited report (mpdash-swarm -audit) is always additionally
//	    required to be invariant-violation-free.
//	mpdash-benchgate -swarm BENCH_swarm.json -min-offload 0.5
//	    additionally gate the edge-cache tier: the report must carry a
//	    cache block (the scenario ran with a cache stanza) whose
//	    origin-offload ratio meets the floor, with zero fill errors;
//	    -min-hit-rate bounds the hit rate the same way.
//	mpdash-benchgate -swarm BENCH_swarm.json -min-throughput 40
//	    additionally require the report's chunks / wall_s to meet an
//	    absolute floor in chunks landed per wall second.
//	mpdash-benchgate -swarm BENCH_on.json -swarm-baseline BENCH_off.json
//	    additionally require the report to strictly beat a baseline run
//	    of the same scenario and population with graceful degradation
//	    off on BOTH the deadline-miss rate and the wasted cellular bytes.
//
// Exit codes: 0 pass, 1 threshold violation, 2 usage or I/O error
// (including a missing -swarm).
package main

import (
	"flag"
	"fmt"
	"os"

	"mpdash/internal/perf"
	"mpdash/internal/swarm"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		swarmPath   = flag.String("swarm", "", "swarm report (BENCH_swarm.json) to gate; required")
		swarmBase   = flag.String("swarm-baseline", "", "also require the report to strictly beat this baseline report (same scenario and sessions, graceful degradation off) on deadline-miss rate AND wasted cellular bytes")
		maxMissRate = flag.Float64("max-miss-rate", 0, "max population deadline-miss rate (0 = 0.10)")
		maxFailed   = flag.Int("max-failed", 0, "max failed sessions")
		maxTimedOut = flag.Int("max-timed-out", 0, "max timed-out sessions")
		maxMTTRP95  = flag.Float64("max-mttr-p95", 0, "max p95 chaos recovery time in seconds; requires an executed chaos timeline with every event recovered (0 = recovery not gated)")
		minOffload  = flag.Float64("min-offload", 0, "min edge-cache origin-offload ratio; requires a run with a cache tier (0 = not gated)")
		minHitRate  = flag.Float64("min-hit-rate", 0, "min edge-cache hit rate; requires a run with a cache tier (0 = not gated)")
		minThr      = flag.Float64("min-throughput", 0, "min chunks landed per wall second (0 = not gated)")
		quiet       = flag.Bool("quiet", false, "print failures only")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpdash-benchgate: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		return 2
	}
	if *swarmPath == "" {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate: -swarm is required")
		flag.Usage()
		return 2
	}

	rep, err := swarm.ReadReport(*swarmPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
		return 2
	}
	rows, ok := perf.GateSwarm(rep, perf.SwarmThresholds{
		MaxMissRate: *maxMissRate, MaxFailed: *maxFailed, MaxTimedOut: *maxTimedOut,
		MaxMTTRP95: *maxMTTRP95, MinOffload: *minOffload, MinHitRate: *minHitRate,
		MinThroughput: *minThr,
	})
	if *swarmBase != "" {
		base, err := swarm.ReadReport(*swarmBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		cmpRows, cmpOK := perf.CompareSwarm(base, rep)
		rows = append(rows, cmpRows...)
		ok = ok && cmpOK
	}
	if err := perf.RenderTable(os.Stdout, rows, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
		return 2
	}
	fmt.Printf("swarm gate: %s\n", perf.Summarize(rows))
	if !ok {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate: swarm run violated its success criteria")
		return 1
	}
	return 0
}
