package perf

// The swarm report gate: absolute success criteria for a BENCH_swarm.json
// produced by cmd/mpdash-swarm. The gate is self-contained — a swarm
// smoke run must satisfy its own invariants (every session accounted
// for, zero ledger violations, zero panics, bounded deadline-miss rate)
// regardless of any prior run.

import (
	"fmt"

	"mpdash/internal/swarm"
)

// SwarmThresholds are the absolute criteria applied to a swarm report.
type SwarmThresholds struct {
	// MaxMissRate is the highest acceptable population deadline-miss
	// rate (default 0.10).
	MaxMissRate float64
	// MaxFailed is the highest acceptable failed-session count
	// (default 0).
	MaxFailed int
	// MaxTimedOut is the highest acceptable timed-out-session count
	// (default 0).
	MaxTimedOut int
	// MaxMTTRP95 gates chaos recovery: when > 0 the report must carry an
	// executed chaos timeline whose every event recovered, with p95 MTTR
	// (seconds) at or under this bound. 0 = recovery not gated.
	MaxMTTRP95 float64
	// MinOffload gates the edge-cache tier: when > 0 the report must
	// carry a cache block whose origin-offload ratio is at or above this
	// bound. 0 = offload not gated.
	MinOffload float64
	// MinHitRate gates the cache hit rate the same way (0 = not gated).
	MinHitRate float64
	// MinThroughput is the floor on swarm throughput in chunks landed
	// per wall second (Chunks / WallS). 0 = throughput not gated.
	MinThroughput float64
}

func (t SwarmThresholds) withDefaults() SwarmThresholds {
	if t.MaxMissRate <= 0 {
		t.MaxMissRate = 0.10
	}
	return t
}

// GateSwarm checks rep against the thresholds and returns one row per
// criterion plus overall pass/fail.
func GateSwarm(rep *swarm.Report, t SwarmThresholds) ([]DiffRow, bool) {
	t = t.withDefaults()
	ok := true
	row := func(metric string, value, limit float64, cmp string, pass bool, note string) DiffRow {
		v := VerdictOK
		if !pass {
			v = VerdictFail
			ok = false
		}
		return DiffRow{Bench: "swarm:" + rep.Scenario, Metric: metric, Fresh: value,
			Limit: fmt.Sprintf("%s %g", cmp, limit), Verdict: v, Note: note}
	}
	accounted := rep.Completed + rep.Failed + rep.TimedOut + rep.Panicked
	rows := []DiffRow{
		row("sessions_accounted", float64(accounted), float64(rep.Sessions), "=",
			accounted == rep.Sessions, "completed+failed+timed_out+panicked"),
		row("ledger_violations", float64(rep.LedgerViolations), 0, "=",
			rep.LedgerViolations == 0, "byte-for-byte verification"),
		row("panicked", float64(rep.Panicked), 0, "=", rep.Panicked == 0, ""),
		row("failed", float64(rep.Failed), float64(t.MaxFailed), "≤",
			rep.Failed <= t.MaxFailed, ""),
		row("timed_out", float64(rep.TimedOut), float64(t.MaxTimedOut), "≤",
			rep.TimedOut <= t.MaxTimedOut, ""),
		row("deadline_miss_rate", rep.DeadlineMissRate, t.MaxMissRate, "≤",
			rep.DeadlineMissRate <= t.MaxMissRate, ""),
		{Bench: "swarm:" + rep.Scenario, Metric: "chunks", Fresh: float64(rep.Chunks),
			Verdict: VerdictInfo},
		{Bench: "swarm:" + rep.Scenario, Metric: "cellular_byte_share",
			Fresh: rep.CellularByteShare, Verdict: VerdictInfo},
	}
	if rep.Chunks == 0 {
		rows = append(rows, DiffRow{Bench: "swarm:" + rep.Scenario, Metric: "chunks",
			Limit: "> 0", Verdict: VerdictFail, Note: "swarm moved no traffic"})
		ok = false
	}
	// Throughput gate: chunks landed per wall second must meet the floor.
	// A report without a measured wall (WallS 0) cannot prove the floor
	// and fails when the gate is requested.
	if t.MinThroughput > 0 {
		thr := 0.0
		if rep.WallS > 0 {
			thr = float64(rep.Chunks) / rep.WallS
		}
		rows = append(rows, row("throughput_chunks_per_s", thr, t.MinThroughput, "≥",
			thr >= t.MinThroughput, "chunks landed per wall second across the population"))
	}
	// Chaos recovery gate: the timeline must have executed, every event
	// must have recovered, and the p95 MTTR must sit under the bound.
	if t.MaxMTTRP95 > 0 {
		recovered := 0
		for _, c := range rep.Chaos {
			if c.Recovered {
				recovered++
			}
		}
		rows = append(rows,
			row("chaos_events", float64(len(rep.Chaos)), 1, "≥",
				len(rep.Chaos) >= 1, "an MTTR gate needs an executed chaos timeline"),
			row("chaos_recovered", float64(recovered), float64(len(rep.Chaos)), "=",
				len(rep.Chaos) >= 1 && recovered == len(rep.Chaos),
				"every chaos event must recover"))
		if rep.MTTR == nil {
			rows = append(rows, DiffRow{Bench: "swarm:" + rep.Scenario, Metric: "mttr_p95_s",
				Limit: fmt.Sprintf("≤ %g", t.MaxMTTRP95), Verdict: VerdictFail,
				Note: "report carries no MTTR quantiles"})
			ok = false
		} else {
			rows = append(rows, row("mttr_p95_s", rep.MTTR.P95, t.MaxMTTRP95, "≤",
				rep.MTTR.P95 <= t.MaxMTTRP95, "time to rolling miss rate back under threshold"))
		}
	}
	// Cache gates: the report must carry a cache block (the scenario ran
	// with an edge tier) and meet the absolute offload / hit-rate floors.
	if t.MinOffload > 0 || t.MinHitRate > 0 {
		if rep.Cache == nil {
			rows = append(rows, DiffRow{Bench: "swarm:" + rep.Scenario, Metric: "cache",
				Limit: "present", Verdict: VerdictFail,
				Note: "a cache gate needs a run with an edge-cache tier"})
			ok = false
		} else {
			if t.MinOffload > 0 {
				rows = append(rows, row("cache_offload_ratio", rep.Cache.OffloadRatio, t.MinOffload, "≥",
					rep.Cache.OffloadRatio >= t.MinOffload, "payload share the origins never saw"))
			}
			if t.MinHitRate > 0 {
				rows = append(rows, row("cache_hit_rate", rep.Cache.HitRate, t.MinHitRate, "≥",
					rep.Cache.HitRate >= t.MinHitRate, "collapsed waiters count as misses"))
			}
			rows = append(rows,
				row("cache_fill_errors", float64(rep.Cache.FillErrors), 0, "=",
					rep.Cache.FillErrors == 0, "origin fills must not fail"),
				DiffRow{Bench: "swarm:" + rep.Scenario, Metric: "cache_collapsed",
					Fresh: float64(rep.Cache.Collapsed), Verdict: VerdictInfo,
					Note: "misses that joined an in-flight fill"})
		}
	}
	// Invariant audit gate: an audited report must be violation-free.
	if rep.Audit != nil {
		rows = append(rows, row("audit_violations", float64(rep.Audit.Count()), 0, "=",
			rep.Audit.Count() == 0, "runtime invariant auditor"))
	}
	return rows, ok
}

// CompareSwarm gates a graceful-degradation run (abort + congestion
// board enabled) against a baseline run of the same scenario with the
// mechanism off: the treated population must strictly reduce BOTH the
// deadline-miss rate AND the wasted cellular bytes, with zero ledger
// violations and zero panics — proving the aborts bought on-time video
// rather than just discarding traffic. A baseline metric already at
// zero cannot strictly improve; holding it at zero passes. A baseline of
// another scenario or population size fails: it proves nothing.
func CompareSwarm(base, fresh *swarm.Report) ([]DiffRow, bool) {
	ok := true
	bench := "swarm:" + fresh.Scenario
	row := func(metric string, baseV, freshV float64, pass bool, note string) DiffRow {
		v := VerdictOK
		if !pass {
			v = VerdictFail
			ok = false
		}
		return DiffRow{Bench: bench, Metric: metric, Base: baseV, Fresh: freshV,
			Limit: "< base", Verdict: v, Note: note}
	}
	mustFall := func(baseV, freshV float64) bool {
		if baseV <= 0 {
			return freshV <= 0
		}
		return freshV < baseV
	}
	rows := []DiffRow{
		row("deadline_miss_rate", base.DeadlineMissRate, fresh.DeadlineMissRate,
			mustFall(base.DeadlineMissRate, fresh.DeadlineMissRate),
			"population deadline misses must fall"),
		row("wasted_cellular_bytes", float64(base.WastedCellularBytes), float64(fresh.WastedCellularBytes),
			mustFall(float64(base.WastedCellularBytes), float64(fresh.WastedCellularBytes)),
			"cellular bytes buying no on-time video must fall"),
		{Bench: bench, Metric: "ledger_violations", Base: float64(base.LedgerViolations),
			Fresh: float64(fresh.LedgerViolations), Limit: "= 0",
			Verdict: verdictIf(fresh.LedgerViolations == 0 && base.LedgerViolations == 0),
			Note:    "byte-for-byte verification, both runs"},
		{Bench: bench, Metric: "panicked", Base: float64(base.Panicked),
			Fresh: float64(fresh.Panicked), Limit: "= 0",
			Verdict: verdictIf(fresh.Panicked == 0 && base.Panicked == 0)},
		{Bench: bench, Metric: "aborts", Base: float64(base.Aborts),
			Fresh: float64(fresh.Aborts), Verdict: VerdictInfo},
		{Bench: bench, Metric: "downgrades", Base: float64(base.Downgrades),
			Fresh: float64(fresh.Downgrades), Verdict: VerdictInfo},
	}
	if fresh.LedgerViolations != 0 || base.LedgerViolations != 0 ||
		fresh.Panicked != 0 || base.Panicked != 0 {
		ok = false
	}
	if base.Scenario != fresh.Scenario || base.Sessions != fresh.Sessions {
		rows = append(rows, DiffRow{Bench: bench, Metric: "sessions",
			Base: float64(base.Sessions), Fresh: float64(fresh.Sessions), Limit: "same run",
			Verdict: VerdictFail, Note: fmt.Sprintf("baseline is scenario %q, report %q", base.Scenario, fresh.Scenario)})
		ok = false
	}
	if fresh.Chunks == 0 || base.Chunks == 0 {
		rows = append(rows, DiffRow{Bench: bench, Metric: "chunks", Limit: "> 0",
			Base: float64(base.Chunks), Fresh: float64(fresh.Chunks),
			Verdict: VerdictFail, Note: "a run moved no traffic"})
		ok = false
	}
	return rows, ok
}

func verdictIf(pass bool) string {
	if pass {
		return VerdictOK
	}
	return VerdictFail
}
