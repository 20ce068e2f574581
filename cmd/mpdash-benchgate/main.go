// Command mpdash-benchgate is the deterministic contract gate: it runs
// the internal/perf suites, diffs them against the checked-in
// BENCH_baseline.json row by row (allocation counts, exact and bounded
// domain metrics — no times), and exits non-zero with a readable table
// when anything regressed. CI runs it on every push; DESIGN.md §11
// documents the policy.
//
// Modes:
//
//	mpdash-benchgate -baseline BENCH_baseline.json
//	    run the suites fresh, write BENCH_core.json / BENCH_netmp.json,
//	    gate against the baseline (exit 1 on regression).
//	mpdash-benchgate -baseline BENCH_baseline.json -update
//	    run the suites and rewrite the baseline from the fresh numbers
//	    (the documented refresh flow — commit the result). With -suites,
//	    the suites not run keep their baseline entries.
//	mpdash-benchgate -swarm BENCH_swarm.json -max-miss-rate 0.10
//	    gate a swarm population report against absolute thresholds
//	    (ledger violations, panics, deadline-miss rate).
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
//	    of the same scenario with graceful degradation off on BOTH the
//	    deadline-miss rate and the wasted cellular bytes.
//
// Exit codes: 0 pass, 1 regression or threshold violation, 2 usage or
// I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mpdash/internal/perf"
	"mpdash/internal/swarm"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline to gate against")
		suites       = flag.String("suites", strings.Join(perf.Suites(), ","), "comma-separated suites to run")
		outDir       = flag.String("out", ".", "directory the fresh BENCH_<suite>.json files are written to")
		update       = flag.Bool("update", false, "rewrite the baseline from the fresh run instead of gating")
		note         = flag.String("note", "", "note stamped into the baseline with -update")
		swarmPath    = flag.String("swarm", "", "gate this swarm report (BENCH_swarm.json) against absolute thresholds instead of the baseline diff")
		swarmBase    = flag.String("swarm-baseline", "", "with -swarm: also require the report to strictly beat this baseline report (same scenario, graceful degradation off) on deadline-miss rate AND wasted cellular bytes")
		maxMissRate  = flag.Float64("max-miss-rate", 0, "swarm gate: max population deadline-miss rate (0 = 0.10)")
		maxFailed    = flag.Int("max-failed", 0, "swarm gate: max failed sessions")
		maxTimedOut  = flag.Int("max-timed-out", 0, "swarm gate: max timed-out sessions")
		maxMTTRP95   = flag.Float64("max-mttr-p95", 0, "swarm gate: max p95 chaos recovery time in seconds; requires an executed chaos timeline with every event recovered (0 = recovery not gated)")
		minOffload   = flag.Float64("min-offload", 0, "swarm gate: min edge-cache origin-offload ratio; requires a run with a cache tier (0 = not gated)")
		minHitRate   = flag.Float64("min-hit-rate", 0, "swarm gate: min edge-cache hit rate; requires a run with a cache tier (0 = not gated)")
		minThr       = flag.Float64("min-throughput", 0, "swarm gate: min chunks landed per wall second (0 = not gated)")
		quiet        = flag.Bool("quiet", false, "print failures only")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpdash-benchgate: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		return 2
	}

	if *swarmPath != "" {
		return gateSwarm(*swarmPath, *swarmBase, perf.SwarmThresholds{
			MaxMissRate: *maxMissRate, MaxFailed: *maxFailed, MaxTimedOut: *maxTimedOut,
			MaxMTTRP95: *maxMTTRP95, MinOffload: *minOffload, MinHitRate: *minHitRate,
			MinThroughput: *minThr,
		}, *quiet)
	}
	if *swarmBase != "" || *minThr != 0 {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate: -swarm-baseline and -min-throughput need -swarm")
		return 2
	}

	names := splitSuites(*suites)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate: -suites is empty")
		return 2
	}

	var logf func(format string, a ...any)
	if !*quiet {
		logf = func(format string, a ...any) { fmt.Printf(format, a...) }
	}
	fresh := make(map[string]*perf.SuiteResult, len(names))
	for _, name := range names {
		s, err := perf.RunSuite(name, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		fresh[name] = s
		path := filepath.Join(*outDir, perf.SuiteFileName(name))
		if err := s.WriteSuite(path); err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		if !*quiet {
			fmt.Printf("wrote %s (%s)\n", path, s.Env)
		}
	}

	if *update {
		base := &perf.Baseline{Version: perf.Version, Note: *note,
			Suites: make(map[string]*perf.SuiteResult, len(fresh))}
		// A partial refresh (-suites core) keeps the suites it did not
		// run. The load error is dropped: -update also creates the
		// baseline where there is none, or one of an older schema.
		if old, err := perf.LoadBaseline(*baselinePath); err == nil {
			for name, s := range old.Suites {
				base.Suites[name] = s
			}
		}
		for name, s := range fresh {
			base.Suites[name] = s
		}
		if err := base.WriteBaseline(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		fmt.Printf("baseline updated: %s (commit it)\n", *baselinePath)
		return 0
	}

	base, err := perf.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
		fmt.Fprintln(os.Stderr, "mpdash-benchgate: to (re)create the baseline: go run ./cmd/mpdash-benchgate -update")
		return 2
	}
	allOK := true
	for _, name := range names {
		bs, ok := base.Suites[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "mpdash-benchgate: baseline has no suite %q (run -update)\n", name)
			return 2
		}
		rows, ok := perf.CompareSuites(bs, fresh[name])
		if !ok {
			allOK = false
		}
		fmt.Printf("\nsuite %s — baseline %s\n        vs fresh %s\n", name, bs.Env, fresh[name].Env)
		if err := perf.RenderTable(os.Stdout, rows, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		fmt.Printf("suite %s: %s\n", name, perf.Summarize(rows))
	}
	if !allOK {
		fmt.Fprintln(os.Stderr, "\nmpdash-benchgate: REGRESSION — see FAIL rows above; if intentional, refresh with -update and commit")
		return 1
	}
	fmt.Println("\nmpdash-benchgate: pass")
	return 0
}

func gateSwarm(path, basePath string, t perf.SwarmThresholds, quiet bool) int {
	rep, err := swarm.ReadReport(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
		return 2
	}
	rows, ok := perf.GateSwarm(rep, t)
	if basePath != "" {
		base, err := swarm.ReadReport(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-benchgate:", err)
			return 2
		}
		cmpRows, cmpOK := perf.CompareSwarm(base, rep)
		rows = append(rows, cmpRows...)
		ok = ok && cmpOK
	}
	if err := perf.RenderTable(os.Stdout, rows, quiet); err != nil {
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

func splitSuites(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
