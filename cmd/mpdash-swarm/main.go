// Command mpdash-swarm runs a population of concurrent MP-DASH client
// sessions — real sockets against a shared chunk-server tier — and
// reports population QoE: p50/p95/p99 startup delay, rebuffer ratio,
// deadline-miss rate, cellular-byte share, and the resilience machinery's
// behaviour under load.
//
// A run is declared by a scenario JSON file (-scenario; see DESIGN.md
// §10 for the schema) or assembled from flags. Every random draw in the
// run — arrival times, Zipf content choice, profile choice, per-session
// retry jitter — descends from -seed, so any population is exactly
// reproducible.
//
// A scenario may declare a chaos timeline — scheduled capacity drops
// and restores, fault surges, path blackouts, origin crashes and
// restarts executed against the shared tier mid-run — either in its
// "chaos" stanza or via -chaos FILE; the report then carries per-event
// recovery times (MTTR). -audit additionally runs the runtime invariant
// auditor (internal/audit) over the run and fails it loudly on ledger,
// goroutine-leak, playback-monotonicity, abort-pairing or waste-bound
// violations.
//
// The machine-readable population report is written to -out
// (BENCH_swarm.json by default); render it later with
// mpdash-analyze -swarm BENCH_swarm.json. The run is then held to its
// pass bar: ledger violations, panics and audit violations always fail
// it, a scenario's "gates" stanza adds its bounds, and -baseline
// REPORT requires a graceful-degradation run to strictly beat an
// abort-off run of the same scenario. One row prints per checked
// quantity, and a failed row exits 1.
//
// Usage:
//
//	mpdash-swarm -sessions 200 -arrival poisson -duration 10s
//	mpdash-swarm -sessions 500 -arrival spike -duration 2s -seed 42
//	mpdash-swarm -scenario flashcrowd.json -metrics-addr 127.0.0.1:9090
//	mpdash-swarm -scenario scenarios/chaos-crash.json -audit -journal chaos.jsonl
//	mpdash-swarm -scenario scenarios/zipf-cache.json -cache-mb 128
//	mpdash-swarm -scenario scenarios/chaos-crash.json -validate
//	mpdash-swarm -scenario scenarios/linkdrop.json -abort -board -baseline BENCH_drop_base.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"mpdash/internal/audit"
	"mpdash/internal/obs"
	"mpdash/internal/swarm"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON file (flags below override its fields)")
		sessions     = flag.Int("sessions", 0, "total sessions to launch")
		arrival      = flag.String("arrival", "", "arrival process: uniform, poisson, ramp or spike")
		duration     = flag.Duration("duration", 0, "arrival window the sessions spread across")
		workers      = flag.Int("workers", 0, "max concurrently active sessions (0 = unbounded)")
		timeout      = flag.Duration("timeout", 0, "per-session timeout (0 = 2× longest video + 30s)")
		seed         = flag.Int64("seed", 0, "master RNG seed threading arrival, profile and Zipf draws (0 = 1)")
		zipfS        = flag.Float64("zipf-s", 0, "Zipf content-popularity exponent (0 = 1.0)")

		wifiMbps = flag.Float64("wifi-mbps", 0, "per-origin WiFi-path shaped rate (0 = unshaped)")
		lteMbps  = flag.Float64("lte-mbps", 0, "per-origin LTE-path shaped rate (0 = unshaped)")
		origins  = flag.Int("origins", 0, "origins per path per group (>1 enables failover/hedging)")
		maxConns = flag.Int("max-conns", 0, "per-origin MaxConns admission limit (0 = unlimited)")

		cacheOn       = flag.Bool("cache", false, "front the origins with a shared edge-cache tier (singleflight collapsing, hit-hint headers)")
		cacheMB       = flag.Int("cache-mb", 0, "edge-cache capacity in MiB (0 = 64; implies -cache)")
		cacheBackhaul = flag.Float64("cache-origin-mbps", 0, "shaped backhaul rate of each origin behind the edges (0 = unshaped; implies -cache)")

		abort            = flag.Bool("abort", false, "enable doomed-chunk abort + rendition downgrade for every session")
		abortFactor      = flag.Float64("abort-factor", 0, "doom-test scale (0 = netmp default 1; implies -abort)")
		abortMinProgress = flag.Float64("abort-min-progress", 0, "window fraction before the first doom evaluation (0 = netmp default 0.25; implies -abort)")
		board            = flag.Bool("board", false, "share a congestion board across sessions (predictor seeding + capacity-drop pre-arming)")
		dropAt           = flag.Duration("drop-at", 0, "append a capacity_drop chaos event at this offset from run start (0 = none)")
		dropWiFiFactor   = flag.Float64("drop-wifi-factor", 1, "capacity-drop multiplier for shaped WiFi origins (1 = unchanged)")
		dropLTEFactor    = flag.Float64("drop-lte-factor", 1, "capacity-drop multiplier for shaped LTE origins (1 = unchanged)")

		chaosPath = flag.String("chaos", "", "chaos timeline JSON file (an array of events; replaces the scenario's chaos stanza)")
		auditOn   = flag.Bool("audit", false, "run the runtime invariant auditor (ledger, goroutine leaks, playback monotonicity, abort pairing, waste bound); violations fail the run")
		validate  = flag.Bool("validate", false, "validate the scenario (after flag overlays) and exit without running")
		baseline  = flag.String("baseline", "", "report of a baseline run (same scenario and sessions, graceful degradation off) that this run must strictly beat on deadline-miss rate AND wasted cellular bytes")

		out          = flag.String("out", "BENCH_swarm.json", "population report output path (empty = skip)")
		keepSessions = flag.Bool("session-detail", false, "include per-session outcomes in the report")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address while the swarm runs (empty = off)")
		journalPath  = flag.String("journal", "", "stream the swarm event journal to this JSONL file (- = stderr)")
		tracePath    = flag.String("trace", "", "write kept per-chunk span traces to this JSONL file (enables tracing)")
		traceChrome  = flag.String("trace-chrome", "", "additionally write kept traces as Chrome trace-event JSON (load in chrome://tracing or Perfetto)")
		traceSample  = flag.Float64("trace-sample", 0.01, "head-sample fraction of healthy traces kept (bad traces — misses, aborts, downgrades, requeues, panics — are always kept)")
		quiet        = flag.Bool("quiet", false, "suppress informational output (errors still print)")
	)
	flag.Parse()

	scn := swarm.Scenario{}
	if *scenarioPath != "" {
		loaded, err := swarm.LoadScenario(*scenarioPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		scn = *loaded
	}
	if *sessions > 0 {
		scn.Sessions = *sessions
	}
	if *arrival != "" {
		scn.Arrival.Kind = swarm.ArrivalKind(*arrival)
	}
	if *duration > 0 {
		scn.Arrival.Over = swarm.Duration(*duration)
	}
	if *workers > 0 {
		scn.MaxActive = *workers
	}
	if *timeout > 0 {
		scn.SessionTimeout = swarm.Duration(*timeout)
	}
	if *seed != 0 {
		scn.Seed = *seed
	}
	if *zipfS > 0 {
		scn.ZipfS = *zipfS
	}
	if *wifiMbps > 0 {
		scn.Servers.WiFiMbps = *wifiMbps
	}
	if *lteMbps > 0 {
		scn.Servers.LTEMbps = *lteMbps
	}
	if *origins > 0 {
		scn.Servers.WiFiOrigins = *origins
		scn.Servers.LTEOrigins = *origins
	}
	if *maxConns > 0 {
		scn.Servers.MaxConns = *maxConns
	}
	if *cacheOn || *cacheMB > 0 || *cacheBackhaul > 0 {
		if scn.Cache == nil {
			scn.Cache = &swarm.CacheSpec{}
		}
		if *cacheMB > 0 {
			scn.Cache.CapacityMB = *cacheMB
		}
		if *cacheBackhaul > 0 {
			scn.Cache.OriginMbps = *cacheBackhaul
		}
	}
	if *abort || *abortFactor != 0 || *abortMinProgress != 0 {
		scn.Abort = &swarm.AbortSpec{Factor: *abortFactor, MinProgress: *abortMinProgress}
	}
	if *board {
		scn.Board = true
	}
	if *chaosPath != "" {
		events, err := swarm.LoadChaos(*chaosPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		scn.Chaos = events
	}
	if *dropAt > 0 {
		scn.Chaos = append(scn.Chaos, swarm.ChaosEvent{
			At:         swarm.Duration(*dropAt),
			Kind:       swarm.ChaosCapacityDrop,
			WiFiFactor: *dropWiFiFactor,
			LTEFactor:  *dropLTEFactor,
		})
	}
	if scn.Sessions <= 0 {
		fmt.Fprintln(os.Stderr, "mpdash-swarm: need -sessions (or a -scenario file that sets them)")
		flag.Usage()
		return 2
	}

	sw, err := swarm.New(scn)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *validate {
		fmt.Printf("scenario %q: valid (%d sessions, %d chaos events)\n",
			sw.Scenario.Name, sw.Scenario.Sessions, len(sw.Scenario.Chaos))
		return 0
	}
	var base *swarm.Report
	if *baseline != "" {
		if base, err = swarm.ReadReport(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	sw.KeepSessions = *keepSessions
	if !*quiet {
		sw.Logf = func(format string, a ...any) { fmt.Printf(format, a...) }
	}

	var auditor *audit.Auditor
	if *metricsAddr != "" || *journalPath != "" || *auditOn {
		tel, closeTel, err := obs.Open(*journalPath, *metricsAddr, sw.Logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer closeTel()
		if *auditOn {
			// The auditor watches the telemetry stream live (abort
			// pairing, chaos markers) and hooks every session's playback
			// position through sw.Audit.
			auditor = audit.New(audit.Config{Sink: tel})
			tel.OnEmit = auditor.Watch
			sw.Audit = auditor
		}
		sw.Instrument(tel)
	}

	var tracer *obs.Tracer
	if *tracePath != "" || *traceChrome != "" {
		tracer = obs.NewTracer(obs.TraceConfig{HeadSampleRate: *traceSample, Seed: scn.Seed})
		sw.Tracer = tracer
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "\ninterrupt: stopping the population gracefully")
		cancel()
		<-sig // second interrupt: hard exit
		os.Exit(1)
	}()

	t0 := time.Now()
	if auditor != nil {
		auditor.Start() // the pre-run goroutine watermark
	}
	rep, err := sw.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if auditor != nil {
		// The tier is drained when Run returns; settle the goroutine
		// check, audit the aggregated counters, and attach the verdict to
		// the report, whose pass bar fails the run on a violation.
		auditor.CheckTotals(rep.LedgerViolations, rep.WastedBytes, rep.BytesTotal)
		rep.Audit = auditor.Finish()
	}
	if tracer != nil {
		rep.Trace = swarm.BuildTraceReport(tracer)
		if err := tracer.Export(*tracePath, *traceChrome); err != nil {
			fmt.Fprintln(os.Stderr, "mpdash-swarm:", err)
			return 1
		}
		if !*quiet && *tracePath != "" {
			fmt.Printf("traces: %s (analyze with mpdash-analyze -trace %s)\n", *tracePath, *tracePath)
		}
	}
	if !*quiet {
		fmt.Printf("\n%s", rep.Summary())
		if rep.Audit != nil {
			fmt.Print(rep.Audit.Summary())
		}
		fmt.Printf("run finished in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !*quiet {
			fmt.Printf("report: %s\n", *out)
		}
	}
	// The pass bar: ledger violations, panics and audit violations fail
	// every run; the scenario's gates stanza and -baseline add their rows.
	rows, ok := rep.Judge(sw.Scenario.Gates)
	if base != nil {
		cmpRows, cmpOK := rep.Compare(base)
		rows, ok = append(rows, cmpRows...), ok && cmpOK
	}
	if err := swarm.WriteGateRows(os.Stdout, rows, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "mpdash-swarm:", err)
		return 1
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "mpdash-swarm: scenario %q failed its pass bar\n", sw.Scenario.Name)
		return 1
	}
	return 0
}
