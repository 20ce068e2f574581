package swarm

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mpdash/internal/audit"
	"mpdash/internal/stats"
)

// Quantiles summarizes one population distribution. Values are exact
// (computed from the full sorted sample, not histogram estimates).
type Quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// quantilesOf computes exact population quantiles (zero value for an
// empty sample).
func quantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Quantiles{
		P50:  stats.NearestRank(s, 0.50),
		P95:  stats.NearestRank(s, 0.95),
		P99:  stats.NearestRank(s, 0.99),
		Mean: sum / float64(len(s)),
		Max:  s[len(s)-1],
	}
}

// Report is the population result of one swarm run — the machine-readable
// BENCH_swarm.json payload.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Arrival  string `json:"arrival"`
	// Sessions is the number launched; Completed finished their chunk
	// budget cleanly; Failed returned an error; TimedOut overstayed the
	// session timeout; Panicked were absorbed by the isolation wrapper.
	Sessions  int `json:"sessions"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	TimedOut  int `json:"timed_out"`
	Panicked  int `json:"panicked"`
	// PeakConcurrent is the highest number of simultaneously running
	// sessions; PeakQueued-style pressure shows up in QueueWaitS instead.
	PeakConcurrent int     `json:"peak_concurrent"`
	WallS          float64 `json:"wall_s"`

	// Population QoE.
	StartupDelayS    Quantiles `json:"startup_delay_s"`
	RebufferRatio    Quantiles `json:"rebuffer_ratio"`
	QueueWaitS       Quantiles `json:"queue_wait_s"`
	AvgLevel         float64   `json:"avg_level"`
	DeadlineMissRate float64   `json:"deadline_miss_rate"`
	// CellularByteShare is LTE-path bytes over all bytes, population-wide.
	CellularByteShare float64 `json:"cellular_byte_share"`

	// Population totals.
	Chunks         int   `json:"chunks"`
	DeadlineMisses int   `json:"deadline_misses"`
	Stalls         int   `json:"stalls"`
	LostChunks     int   `json:"lost_chunks"`
	BytesTotal     int64 `json:"bytes_total"`
	CellularBytes  int64 `json:"cellular_bytes"`
	// Graceful-degradation totals: doomed-chunk aborts, the rendition
	// downgrades that recovered them, the partial payload the aborts
	// discarded, and the LTE-path share of payload that bought no
	// on-time video (aborted/failed partials + deadline-missed chunks).
	Aborts              int   `json:"aborts"`
	Downgrades          int   `json:"downgrades"`
	AbortWastedBytes    int64 `json:"abort_wasted_bytes"`
	WastedCellularBytes int64 `json:"wasted_cellular_bytes"`
	// WastedBytes is the all-path population total of payload that
	// bought no on-time video, each byte once: bytes of failed or corrupt
	// attempts, aborted and failed chunks' partials, late chunks' payload
	// and hedge losers. It is the auditor's unbounded-waste input.
	WastedBytes int64 `json:"wasted_bytes"`

	// Resilience totals (PRs 1–3 machinery under population load).
	FaultsSurvived  int64 `json:"faults_survived"`
	Retries         int64 `json:"retries"`
	Redials         int64 `json:"redials"`
	Requeued        int64 `json:"requeued"`
	Failovers       int64 `json:"failovers"`
	HedgesIssued    int64 `json:"hedges_issued"`
	HedgesWon       int64 `json:"hedges_won"`
	HedgesCancelled int64 `json:"hedges_cancelled"`
	// HedgeWastedBytes is the payload spent on hedge-race losers.
	HedgeWastedBytes int64 `json:"hedge_wasted_bytes"`
	// LedgerViolations counts sessions whose byte-for-byte verification
	// failed — must be zero on a correct run.
	LedgerViolations int `json:"ledger_violations"`

	Server ServerReport `json:"server"`

	// Cache is the edge-cache tier's report (nil = the run had no cache
	// stanza and sessions streamed straight from the origins).
	Cache *CacheReport `json:"cache,omitempty"`

	// Chaos is the executed chaos timeline, one entry per event, with
	// per-event recovery times (MTTRS = -1 when the population's rolling
	// miss rate never returned under threshold before the run ended).
	Chaos []ChaosEventReport `json:"chaos,omitempty"`
	// MTTR summarizes recovery times (seconds) across the recovered
	// chaos events; nil when the run had no chaos timeline.
	MTTR *Quantiles `json:"mttr_s,omitempty"`

	// Audit is the runtime invariant auditor's verdict, attached by the
	// caller that ran the audit (nil = the run was not audited).
	Audit *audit.Result `json:"audit,omitempty"`

	// Trace is the span-tracing summary — sampling counters and the
	// critical-path miss budget — attached by the caller that enabled
	// tracing (nil = the run was not traced).
	Trace *TraceReport `json:"trace,omitempty"`

	// PerProfile breaks the headline QoE down by session profile.
	PerProfile []ProfileReport `json:"per_profile,omitempty"`

	// SessionOutcomes is the full per-session detail (opt-in; see
	// Swarm.KeepSessions).
	SessionOutcomes []SessionOutcome `json:"session_outcomes,omitempty"`
}

// ProfileReport is one profile's slice of the population.
type ProfileReport struct {
	Name              string    `json:"name"`
	Sessions          int       `json:"sessions"`
	Completed         int       `json:"completed"`
	StartupDelayS     Quantiles `json:"startup_delay_s"`
	RebufferRatio     Quantiles `json:"rebuffer_ratio"`
	DeadlineMissRate  float64   `json:"deadline_miss_rate"`
	CellularByteShare float64   `json:"cellular_byte_share"`
}

// aggregate folds the session outcomes and the server tier snapshot into
// the population report.
func aggregate(scn *Scenario, outs []SessionOutcome, srv ServerReport, wall time.Duration, peakActive int) *Report {
	r := &Report{
		Scenario:       scn.Name,
		Seed:           scn.Seed,
		Arrival:        fmt.Sprintf("%s over %v", scn.Arrival.Kind, scn.Arrival.Over.D()),
		Sessions:       len(outs),
		PeakConcurrent: peakActive,
		WallS:          wall.Seconds(),
		Server:         srv,
	}
	var startups, rebuffers, queueWaits []float64
	var levelSum float64
	var levelSessions int
	byProfile := make(map[string][]SessionOutcome)
	for _, o := range outs {
		byProfile[o.Profile] = append(byProfile[o.Profile], o)
		switch {
		case o.Panicked:
			r.Panicked++
		case o.TimedOut:
			r.TimedOut++
		case o.Err != "":
			r.Failed++
		default:
			r.Completed++
		}
		queueWaits = append(queueWaits, o.QueueWait.D().Seconds())
		res := o.Result
		if res == nil {
			continue
		}
		if res.Chunks > 0 {
			startups = append(startups, res.StartupDelay.Seconds())
			rebuffers = append(rebuffers, o.RebufferRatio)
			levelSum += res.AvgLevel
			levelSessions++
		}
		r.Chunks += res.Chunks
		r.DeadlineMisses += res.DeadlineMisses
		r.Stalls += res.Stalls
		r.LostChunks += res.LostChunks
		r.BytesTotal += o.TotalBytes
		r.CellularBytes += o.CellularBytes
		r.Aborts += res.Aborts
		r.Downgrades += res.Downgrades
		r.AbortWastedBytes += res.AbortWastedBytes
		r.WastedCellularBytes += o.WastedCellularBytes
		r.WastedBytes += res.WastedBytes + res.WastedPrimaryBytes + res.WastedSecondaryBytes + res.HedgeWastedBytes
		r.FaultsSurvived += res.FaultsSurvived
		r.Retries += res.Retries
		r.Redials += res.Redials
		r.Requeued += res.Requeued
		r.Failovers += res.Failovers
		r.HedgesIssued += res.HedgesIssued
		r.HedgesWon += res.HedgesWon
		r.HedgesCancelled += res.HedgesCancelled
		r.HedgeWastedBytes += res.HedgeWastedBytes
		if !res.AllVerified {
			r.LedgerViolations++
		}
	}
	r.StartupDelayS = quantilesOf(startups)
	r.RebufferRatio = quantilesOf(rebuffers)
	r.QueueWaitS = quantilesOf(queueWaits)
	if levelSessions > 0 {
		r.AvgLevel = levelSum / float64(levelSessions)
	}
	if r.Chunks > 0 {
		r.DeadlineMissRate = float64(r.DeadlineMisses) / float64(r.Chunks)
	}
	if r.BytesTotal > 0 {
		r.CellularByteShare = float64(r.CellularBytes) / float64(r.BytesTotal)
	}
	for _, p := range scn.Profiles {
		slice := byProfile[p.Name]
		if len(slice) == 0 {
			continue
		}
		r.PerProfile = append(r.PerProfile, profileReport(p.Name, slice))
	}
	return r
}

func profileReport(name string, outs []SessionOutcome) ProfileReport {
	pr := ProfileReport{Name: name, Sessions: len(outs)}
	var startups, rebuffers []float64
	var chunks, misses int
	var bytes, cellular int64
	for _, o := range outs {
		if !o.Panicked && !o.TimedOut && o.Err == "" {
			pr.Completed++
		}
		if res := o.Result; res != nil && res.Chunks > 0 {
			startups = append(startups, res.StartupDelay.Seconds())
			rebuffers = append(rebuffers, o.RebufferRatio)
			chunks += res.Chunks
			misses += res.DeadlineMisses
			bytes += o.TotalBytes
			cellular += o.CellularBytes
		}
	}
	pr.StartupDelayS = quantilesOf(startups)
	pr.RebufferRatio = quantilesOf(rebuffers)
	if chunks > 0 {
		pr.DeadlineMissRate = float64(misses) / float64(chunks)
	}
	if bytes > 0 {
		pr.CellularByteShare = float64(cellular) / float64(bytes)
	}
	return pr
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("swarm: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("swarm: write report: %w", err)
	}
	return nil
}

// ReadReport loads a BENCH_swarm.json written by WriteJSON.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("swarm: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("swarm: decode report %s: %w", path, err)
	}
	return &r, nil
}

// Summary renders the report for humans.
func (r *Report) Summary() string {
	var b strings.Builder
	name := r.Scenario
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "swarm %s — %d sessions (%s), seed %d, wall %.1fs\n",
		name, r.Sessions, r.Arrival, r.Seed, r.WallS)
	fmt.Fprintf(&b, "  outcomes     completed %d, failed %d, timed out %d, panicked %d\n",
		r.Completed, r.Failed, r.TimedOut, r.Panicked)
	fmt.Fprintf(&b, "  concurrency  peak %d sessions, peak server conns %d, queue wait p95 %.3fs\n",
		r.PeakConcurrent, r.Server.PeakConns, r.QueueWaitS.P95)
	fmt.Fprintf(&b, "  startup      p50 %.3fs  p95 %.3fs  p99 %.3fs  max %.3fs\n",
		r.StartupDelayS.P50, r.StartupDelayS.P95, r.StartupDelayS.P99, r.StartupDelayS.Max)
	fmt.Fprintf(&b, "  rebuffering  ratio p50 %.4f  p95 %.4f  p99 %.4f; %d stalls, %d lost chunks\n",
		r.RebufferRatio.P50, r.RebufferRatio.P95, r.RebufferRatio.P99, r.Stalls, r.LostChunks)
	fmt.Fprintf(&b, "  deadlines    %d/%d chunks missed (%.2f%%), avg level %.2f\n",
		r.DeadlineMisses, r.Chunks, 100*r.DeadlineMissRate, r.AvgLevel)
	fmt.Fprintf(&b, "  bytes        %.1f MB total, %.1f%% cellular; %.1f MB bought no on-time video\n",
		float64(r.BytesTotal)/1e6, 100*r.CellularByteShare, float64(r.WastedBytes)/1e6)
	if r.Aborts > 0 || r.WastedCellularBytes > 0 {
		fmt.Fprintf(&b, "  degradation  %d aborts, %d downgrades, %.2f MB abandoned, %.2f MB wasted cellular\n",
			r.Aborts, r.Downgrades, float64(r.AbortWastedBytes)/1e6, float64(r.WastedCellularBytes)/1e6)
	}
	fmt.Fprintf(&b, "  resilience   %d faults survived (retries %d, requeued %d), redials %d, failovers %d\n",
		r.FaultsSurvived, r.Retries, r.Requeued, r.Redials, r.Failovers)
	if r.HedgesIssued > 0 {
		fmt.Fprintf(&b, "  hedging      issued %d, won %d, cancelled %d, %.2f MB on losers\n",
			r.HedgesIssued, r.HedgesWon, r.HedgesCancelled, float64(r.HedgeWastedBytes)/1e6)
	}
	fmt.Fprintf(&b, "  server tier  %d origins, served %.1f MB, rejected %d, capped %d, accept retries %d, faults injected %d\n",
		r.Server.Origins, float64(r.Server.ServedBytes)/1e6, r.Server.RejectedConns,
		r.Server.CappedConns, r.Server.AcceptRetries, r.Server.InjectedFaults)
	if c := r.Cache; c != nil {
		fmt.Fprintf(&b, "  cache        %d edges (%d MiB), hit rate %.1f%% (%d hits, %d misses, %d collapsed), %d evictions\n",
			c.Edges, c.CapacityMB, 100*c.HitRate, c.Hits, c.Misses, c.Collapsed, c.Evictions)
		fmt.Fprintf(&b, "               offload %.2f — served %.1f MB, pulled %.1f MB from origins, %d fill errors\n",
			c.OffloadRatio, float64(c.ServedBytes)/1e6, float64(c.OriginBytes)/1e6, c.FillErrors)
		for _, rk := range c.ByRank {
			fmt.Fprintf(&b, "    rank %-2d %-14s hit %5.1f%% (%d/%d)  expected share %.1f%%\n",
				rk.Rank, rk.Video, 100*rk.HitRate, rk.Hits, rk.Hits+rk.Misses, 100*rk.ExpectedShare)
		}
	}
	if len(r.Chaos) > 0 {
		recovered := 0
		for _, c := range r.Chaos {
			if c.Recovered {
				recovered++
			}
		}
		if r.MTTR != nil {
			fmt.Fprintf(&b, "  chaos        %d events, %d/%d recovered, mttr p50 %.2fs p95 %.2fs\n",
				len(r.Chaos), recovered, len(r.Chaos), r.MTTR.P50, r.MTTR.P95)
		} else {
			fmt.Fprintf(&b, "  chaos        %d events, %d/%d recovered\n", len(r.Chaos), recovered, len(r.Chaos))
		}
		for _, c := range r.Chaos {
			target := ""
			switch c.Kind {
			case ChaosBlackout, ChaosHeal:
				target = fmt.Sprintf(" %s", pathLabel(c.Path))
			case ChaosOriginCrash, ChaosOriginRestart:
				target = fmt.Sprintf(" %s#%d", pathLabel(c.Path), c.Origin)
			}
			rec := "not recovered"
			if c.Recovered {
				rec = fmt.Sprintf("recovered in %.2fs", c.MTTRS)
			}
			fmt.Fprintf(&b, "    %6.2fs %-16s%s (%d origins) — %s\n",
				c.AppliedS, c.Kind, target, c.Origins, rec)
		}
	}
	fmt.Fprintf(&b, "  ledger       %d violations\n", r.LedgerViolations)
	if r.Audit != nil {
		verdict := "PASS"
		if !r.Audit.OK() {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  audit        %s — %d invariant violations (%d events watched, goroutines %d vs watermark %d)\n",
			verdict, r.Audit.Count(), r.Audit.Events, r.Audit.Settled, r.Audit.Watermark)
	}
	if r.Trace != nil {
		r.Trace.summary(&b)
	}
	if len(r.PerProfile) > 0 {
		fmt.Fprintf(&b, "  per profile:\n")
		for _, p := range r.PerProfile {
			fmt.Fprintf(&b, "    %-16s n=%-4d done=%-4d startup p95 %.3fs  rebuf p95 %.4f  miss %.2f%%  cellular %.1f%%\n",
				p.Name, p.Sessions, p.Completed, p.StartupDelayS.P95,
				p.RebufferRatio.P95, 100*p.DeadlineMissRate, 100*p.CellularByteShare)
		}
	}
	return b.String()
}
