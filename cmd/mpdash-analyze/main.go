// Command mpdash-analyze is the multipath video analysis tool (paper §6):
// it runs the Figure 8 experiment trio (default MPTCP, MP-DASH rate-based,
// MP-DASH duration-based under FESTIVE), prints per-session metrics and
// ASCII chunk visualizations, and optionally writes SVG renderings.
//
// With -journal it instead ingests a JSONL event journal (as written by
// mpdash-netfetch -journal or obs.Journal.StreamTo) and renders the
// per-chunk decision timeline: every subflow engage/stand-down with the
// throughput estimate that drove it, adapter Φ/Ω actions, breaker and
// hedge activity, edge-cache hits/misses/collapses, and each chunk's
// outcome against its deadline.
// Chaos
// timeline events (chaos.*) render as == CHAOS == markers, and audit
// and session-panic events surface as loud one-liners, so a chaos run's
// journal reads as a failure-and-recovery story.
//
// With -swarm it renders the population summary from a BENCH_swarm.json
// report written by mpdash-swarm: outcome counts, startup-delay /
// rebuffering / queue-wait quantiles, deadline and cellular shares, the
// server-tier ledger, the edge-cache tier's hit-rate/offload block with
// its by-popularity-rank breakdown, the executed chaos timeline with
// per-event MTTR, the invariant-audit verdict, and the per-profile
// breakdown.
//
// With -trace it ingests a span-trace JSONL file (mpdash-swarm -trace or
// mpdash-netfetch -trace) and prints the verdict census plus the
// critical-path deadline-miss budget: each missed chunk's overrun walked
// back to the span categories (fetch, redial, backoff, hedge, sched, …)
// that dominated its timeline, aggregated population-wide with
// per-category shares and p50/p95 per-miss contributions.
//
// In -journal mode the exit status doubles as a CI gate: a journal
// carrying audit.* violations or session.panic events exits non-zero.
//
// Usage:
//
//	mpdash-analyze -chunks 40
//	mpdash-analyze -svg-dir /tmp/fig8 -chunks 150
//	mpdash-analyze -journal session.jsonl
//	mpdash-analyze -swarm BENCH_swarm.json
//	mpdash-analyze -trace swarm-traces.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mpdash"
	"mpdash/internal/analysis"
	"mpdash/internal/harness"
	"mpdash/internal/obs"
	"mpdash/internal/pcaplite"
	"mpdash/internal/swarm"
)

func main() {
	var (
		chunks  = flag.Int("chunks", 40, "chunks per session")
		svgDir  = flag.String("svg-dir", "", "directory to write fig8-*.svg renderings")
		pcapDir = flag.String("pcap-dir", "", "directory to write .mpdt packet traces")
		buffers = flag.Bool("buffers", false, "also print buffer-occupancy trajectories")
		wifi    = flag.Float64("wifi", 3.8, "WiFi bandwidth (Mbps)")
		lte     = flag.Float64("lte", 3.0, "LTE bandwidth (Mbps)")
		journal = flag.String("journal", "", "render the decision timeline from this JSONL event journal (- = stdin) instead of simulating")
		swarmIn = flag.String("swarm", "", "render the population summary from this BENCH_swarm.json report instead of simulating")
		traceIn = flag.String("trace", "", "render the deadline-miss budget from this span-trace JSONL file (- = stdin) instead of simulating")
	)
	flag.Parse()

	if *journal != "" {
		if err := renderJournal(*journal); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *traceIn != "" {
		if err := renderTraces(*traceIn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *swarmIn != "" {
		rep, err := swarm.ReadReport(*swarmIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(rep.Summary())
		if rep.Audit != nil {
			fmt.Print(rep.Audit.Summary())
		}
		return
	}

	cond := mpdash.LabCondition{Name: "custom", WiFiMbps: *wifi, LTEMbps: *lte}
	wifiTr, lteTr := cond.Traces()

	schemes := []struct {
		name   string
		scheme mpdash.Scheme
	}{
		{"default-mptcp", mpdash.Baseline},
		{"mpdash-rate", mpdash.MPDashRate},
		{"mpdash-duration", mpdash.MPDashDuration},
	}
	for _, s := range schemes {
		cfg := harness.SessionConfig{
			WiFi: wifiTr, LTE: lteTr,
			Algorithm: harness.FESTIVE, Scheme: s.scheme, Chunks: *chunks,
		}
		rec := &analysis.MemoryRecorder{PathNames: []string{"wifi", "lte"}}
		if *pcapDir != "" {
			cfg.Recorder = rec
		}
		res, err := harness.RunSession(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := analysis.Analyze(res.Report, "wifi")
		fmt.Printf("\n===== %s =====\n%s\n\n", s.name, m)
		fmt.Print(analysis.RenderChunksASCII(res.Report, "lte", 2))
		if *buffers {
			fmt.Println()
			fmt.Print(analysis.RenderBufferASCII(res.Report, 0, 0.8, 50))
		}
		if *pcapDir != "" {
			if err := os.MkdirAll(*pcapDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*pcapDir, "trace-"+s.name+".mpdt")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			w, err := pcaplite.NewWriter(f, rec.PathNames)
			if err == nil {
				for _, r := range rec.Records {
					if err = w.Write(r); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = w.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d records)\n", path, len(rec.Records))
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*svgDir, "fig8-"+s.name+".svg")
			if err := os.WriteFile(path, analysis.RenderChunksSVG(res.Report, "lte"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

// renderJournal reads a JSONL event journal and prints the per-chunk
// decision timeline. It fails (non-zero exit) when the journal records
// invariant violations or session panics, so CI pipelines can gate on it
// without parsing output. A truncated final line — a crashed writer —
// degrades to a warning: the parsed prefix still renders.
func renderJournal(path string) error {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJournal(r)
	if errors.Is(err, obs.ErrTruncatedTail) {
		fmt.Fprintf(os.Stderr, "warning: %v (rendering the parsed prefix)\n", err)
		err = nil
	}
	if len(events) > 0 {
		obs.RenderTimeline(os.Stdout, events)
	}
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("journal %s: no events", path)
	}
	violations, panics := 0, 0
	for _, e := range events {
		switch {
		case e.Type == "audit.violation":
			violations++
		case e.Type == "audit.done" && e.Num["violations"] > 0:
			violations += int(e.Num["violations"]) - violations
		case e.Type == "session.panic":
			panics++
		}
	}
	if violations > 0 || panics > 0 {
		return fmt.Errorf("journal %s: %d audit violations, %d session panics", path, violations, panics)
	}
	return nil
}

// renderTraces reads a span-trace JSONL file (mpdash-swarm -trace or
// mpdash-netfetch -trace) and prints the verdict census plus the
// critical-path deadline-miss budget: which span categories the missed
// chunks' overruns are attributed to, population-wide.
func renderTraces(path string) error {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	recs, err := obs.ReadTraceJSONL(r)
	if errors.Is(err, obs.ErrTruncatedTail) {
		fmt.Fprintf(os.Stderr, "warning: %v (analyzing the parsed prefix)\n", err)
		err = nil
	}
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace %s: no traces", path)
	}
	verdicts := map[string]int{}
	for _, rec := range recs {
		verdicts[rec.Verdict]++
	}
	fmt.Printf("traces %s: %d kept\n", path, len(recs))
	for _, v := range []string{obs.TraceOK, obs.TraceMissed, obs.TraceLost, obs.TraceFailed, obs.TracePanic} {
		if n := verdicts[v]; n > 0 {
			fmt.Printf("  %-8s %d\n", v, n)
			delete(verdicts, v)
		}
	}
	for v, n := range verdicts {
		fmt.Printf("  %-8s %d\n", v, n)
	}
	fmt.Println()
	obs.BuildMissBudget(recs).Render(os.Stdout)
	return nil
}
