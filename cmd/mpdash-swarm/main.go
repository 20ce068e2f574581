// Command mpdash-swarm runs a population of concurrent MP-DASH client
// sessions — real sockets against a shared chunk-server tier — and
// reports population QoE: p50/p95/p99 startup delay, rebuffer ratio,
// deadline-miss rate, cellular-byte share, and the resilience machinery's
// behaviour under load.
//
// A run is declared by a scenario JSON file (-scenario, required; see
// DESIGN.md §10 for the schema). Every random draw in the run — arrival
// times, Zipf content choice, profile choice, per-session retry jitter —
// descends from the file's seed, so any population is exactly
// reproducible. Two switches arm the graceful-degradation machinery
// over the same file: -abort (doomed-chunk abort with the default
// policy) and -board (a shared congestion board).
//
// A scenario may declare a chaos timeline in its "chaos" stanza —
// scheduled capacity drops and restores, fault surges, path blackouts,
// origin crashes and restarts executed against the shared tier mid-run;
// the report then carries per-event recovery times (MTTR). -audit
// additionally runs the runtime invariant auditor (internal/audit) over
// the run and fails it loudly on ledger, goroutine-leak,
// playback-monotonicity, abort-pairing or waste-bound violations.
//
// The machine-readable population report is written to -out
// (BENCH_swarm.json by default); render it later with
// mpdash-analyze -swarm BENCH_swarm.json. The run is then held to its
// pass bar: ledger violations, panics and audit violations always fail
// it, and a scenario's "gates" stanza adds its bounds. One row prints
// per checked quantity, and a failed row exits 1.
//
// Usage:
//
//	mpdash-swarm -scenario scenarios/smoke-64.json
//	mpdash-swarm -scenario scenarios/zipf-cache.json -metrics-addr 127.0.0.1:9090
//	mpdash-swarm -scenario scenarios/chaos-crash.json -audit -journal chaos.jsonl
//	mpdash-swarm -scenario scenarios/chaos-crash.json -validate
//	mpdash-swarm -scenario scenarios/linkdrop.json -abort -board
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpdash/cmd/internal/cli"
	"mpdash/internal/audit"
	"mpdash/internal/obs"
	"mpdash/internal/swarm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpdash-swarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON file declaring the run (required)")
		abort        = fs.Bool("abort", false, "enable doomed-chunk abort + rendition downgrade, with the default policy, for every session")
		board        = fs.Bool("board", false, "share a congestion board across sessions (predictor seeding + capacity-drop pre-arming)")

		auditOn  = fs.Bool("audit", false, "run the runtime invariant auditor (ledger, goroutine leaks, playback monotonicity, abort pairing, waste bound); violations fail the run")
		validate = fs.Bool("validate", false, "validate the scenario and exit without running")

		out          = fs.String("out", "BENCH_swarm.json", "population report output path (empty = skip)")
		keepSessions = fs.Bool("session-detail", false, "include per-session outcomes in the report")

		telemetry = cli.AddTelemetry(fs, stdout)
		tracing   = cli.AddTracing(fs, 0.01)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *scenarioPath == "" {
		fmt.Fprintln(stderr, "mpdash-swarm: need -scenario")
		fs.Usage()
		return 2
	}
	scn, err := swarm.LoadScenario(*scenarioPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *abort {
		scn.Abort = &swarm.AbortSpec{}
	}
	if *board {
		scn.Board = true
	}

	sw, err := swarm.New(*scn)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *validate {
		fmt.Fprintf(stdout, "scenario %q: valid (%d sessions, %d chaos events)\n",
			sw.Scenario.Name, sw.Scenario.Sessions, len(sw.Scenario.Chaos))
		return 0
	}
	sw.KeepSessions = *keepSessions
	infof := telemetry.Infof
	sw.Logf = infof

	tel, closeTel, err := telemetry.Open()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer closeTel()
	var auditor *audit.Auditor
	if *auditOn {
		if tel == nil {
			tel = obs.New()
		}
		// The auditor watches the telemetry stream live (abort
		// pairing, chaos markers) and hooks every session's playback
		// position through sw.Audit.
		auditor = audit.New(audit.Config{Sink: tel})
		tel.OnEmit = auditor.Watch
		sw.Audit = auditor
	}
	sw.Instrument(tel)
	sw.Tracer = tracing.Tracer(scn.Seed)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli.OnInterrupt(stderr, "stopping the population gracefully", cancel)

	t0 := time.Now()
	if auditor != nil {
		auditor.Start() // the pre-run goroutine watermark
	}
	rep, err := sw.Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if auditor != nil {
		// The tier is drained when Run returns; settle the goroutine
		// check, audit the aggregated counters, and attach the verdict to
		// the report, whose pass bar fails the run on a violation.
		auditor.CheckTotals(rep.LedgerViolations, rep.WastedBytes, rep.BytesTotal)
		rep.Audit = auditor.Finish()
	}
	if sw.Tracer != nil {
		rep.Trace = swarm.BuildTraceReport(sw.Tracer)
		if err := tracing.Export(sw.Tracer, infof); err != nil {
			fmt.Fprintln(stderr, "mpdash-swarm:", err)
			return 1
		}
	}
	infof("\n%s", rep.Summary())
	if rep.Audit != nil {
		infof("%s", rep.Audit.Summary())
	}
	infof("run finished in %v\n", time.Since(t0).Round(time.Millisecond))
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		infof("report: %s\n", *out)
	}
	// The pass bar: ledger violations, panics and audit violations fail
	// every run; the scenario's gates stanza adds its rows.
	rows, ok := rep.Judge(sw.Scenario.Gates)
	if err := swarm.WriteGateRows(stdout, rows, telemetry.Quiet()); err != nil {
		fmt.Fprintln(stderr, "mpdash-swarm:", err)
		return 1
	}
	if !ok {
		fmt.Fprintf(stderr, "mpdash-swarm: scenario %q failed its pass bar\n", sw.Scenario.Name)
		return 1
	}
	return 0
}
