package perf

import (
	"testing"

	"mpdash/internal/audit"
	"mpdash/internal/swarm"
)

func TestGateSwarm(t *testing.T) {
	good := &swarm.Report{Scenario: "s", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0.02}
	if rows, ok := GateSwarm(good, SwarmThresholds{}); !ok {
		t.Fatalf("healthy report failed: %+v", rows)
	}

	for name, rep := range map[string]*swarm.Report{
		"miss rate":   {Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, DeadlineMissRate: 0.2},
		"ledger":      {Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, LedgerViolations: 1},
		"panic":       {Scenario: "s", Sessions: 64, Completed: 63, Panicked: 1, Chunks: 800},
		"failed":      {Scenario: "s", Sessions: 64, Completed: 63, Failed: 1, Chunks: 800},
		"unaccounted": {Scenario: "s", Sessions: 64, Completed: 60, Chunks: 800},
		"no traffic":  {Scenario: "s", Sessions: 64, Completed: 64},
	} {
		if _, ok := GateSwarm(rep, SwarmThresholds{}); ok {
			t.Errorf("%s: gate passed", name)
		}
	}

	// Thresholds relax the absolute criteria.
	lax := &swarm.Report{Scenario: "s", Sessions: 64, Completed: 62, Failed: 1,
		TimedOut: 1, Chunks: 800, DeadlineMissRate: 0.2}
	if _, ok := GateSwarm(lax, SwarmThresholds{MaxMissRate: 0.3, MaxFailed: 1, MaxTimedOut: 1}); !ok {
		t.Fatal("relaxed thresholds still failed")
	}
}

func TestGateSwarmMTTR(t *testing.T) {
	base := func() *swarm.Report {
		return &swarm.Report{Scenario: "chaos", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.02,
			Chaos: []swarm.ChaosEventReport{
				{Kind: swarm.ChaosOriginCrash, Recovered: true, MTTRS: 1.2},
				{Kind: swarm.ChaosOriginRestart, Recovered: true, MTTRS: 0.4},
			},
			MTTR: &swarm.Quantiles{P50: 0.8, P95: 1.2}}
	}

	if rows, ok := GateSwarm(base(), SwarmThresholds{MaxMTTRP95: 5}); !ok {
		t.Fatalf("recovered chaos run failed the MTTR gate: %+v", rows)
	}

	// p95 over the bound fails.
	slow := base()
	slow.MTTR.P95 = 9
	if _, ok := GateSwarm(slow, SwarmThresholds{MaxMTTRP95: 5}); ok {
		t.Error("slow recovery passed the MTTR gate")
	}
	// An unrecovered event fails even with fast quantiles.
	unrec := base()
	unrec.Chaos[1].Recovered = false
	if _, ok := GateSwarm(unrec, SwarmThresholds{MaxMTTRP95: 5}); ok {
		t.Error("unrecovered event passed the MTTR gate")
	}
	// No chaos timeline at all fails: the gate demands the events ran.
	empty := base()
	empty.Chaos, empty.MTTR = nil, nil
	if _, ok := GateSwarm(empty, SwarmThresholds{MaxMTTRP95: 5}); ok {
		t.Error("chaos-free report passed the MTTR gate")
	}
	// Quantiles missing while events recovered: still a failure.
	noq := base()
	noq.MTTR = nil
	if _, ok := GateSwarm(noq, SwarmThresholds{MaxMTTRP95: 5}); ok {
		t.Error("report without MTTR quantiles passed the gate")
	}
	// Without the threshold the same reports are not recovery-gated.
	if _, ok := GateSwarm(empty, SwarmThresholds{}); !ok {
		t.Error("chaos-free report failed without an MTTR threshold")
	}
}

func TestGateSwarmAudit(t *testing.T) {
	rep := &swarm.Report{Scenario: "s", Sessions: 64, Completed: 64,
		Chunks: 800, Audit: &audit.Result{Watermark: 10, Settled: 10}}
	if rows, ok := GateSwarm(rep, SwarmThresholds{}); !ok {
		t.Fatalf("clean audited report failed: %+v", rows)
	}
	rep.Audit.Violations = []audit.Violation{{Invariant: audit.InvLeak, Detail: "leak"}}
	if _, ok := GateSwarm(rep, SwarmThresholds{}); ok {
		t.Error("audited report with violations passed")
	}
}

func TestGateSwarmMinThroughput(t *testing.T) {
	rep := func(wallS float64) *swarm.Report {
		return &swarm.Report{Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, WallS: wallS}
	}
	for _, c := range []struct {
		name   string
		wallS  float64
		floor  float64
		pass   bool
		value  float64
		hasRow bool
	}{
		{"floor met", 10, 80, true, 80, true},
		{"floor missed", 10, 80.5, false, 80, true},
		{"no measured wall", 0, 40, false, 0, true},
		{"floor unset", 10, 0, true, 0, false},
	} {
		rows, ok := GateSwarm(rep(c.wallS), SwarmThresholds{MinThroughput: c.floor})
		if ok != c.pass {
			t.Errorf("%s: pass = %v, want %v: %+v", c.name, ok, c.pass, rows)
		}
		r := findRow(rows, "swarm:s", "throughput_chunks_per_s")
		if (r != nil) != c.hasRow {
			t.Errorf("%s: throughput row %+v, want present = %v", c.name, r, c.hasRow)
			continue
		}
		if r != nil && r.Fresh != c.value {
			t.Errorf("%s: throughput %v, want %v", c.name, r.Fresh, c.value)
		}
	}
}

func TestCompareSwarm(t *testing.T) {
	base := &swarm.Report{Scenario: "drop", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0.30, WastedCellularBytes: 5 << 20}
	better := &swarm.Report{Scenario: "drop", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20,
		Aborts: 40, Downgrades: 40}

	rows, ok := CompareSwarm(base, better)
	if !ok {
		t.Fatalf("strict improvement failed the gate: %+v", rows)
	}
	// Info rows expose the mechanism's activity for the CI log.
	found := 0
	for _, r := range rows {
		if r.Metric == "aborts" || r.Metric == "downgrades" {
			if r.Verdict != VerdictInfo {
				t.Errorf("%s verdict = %q, want info", r.Metric, r.Verdict)
			}
			found++
		}
	}
	if found != 2 {
		t.Errorf("missing abort/downgrade info rows: %+v", rows)
	}

	for name, fresh := range map[string]*swarm.Report{
		"miss rate equal": {Scenario: "drop", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.30, WastedCellularBytes: 1 << 20},
		"miss rate worse": {Scenario: "drop", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.35, WastedCellularBytes: 1 << 20},
		"waste equal": {Scenario: "drop", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.08, WastedCellularBytes: 5 << 20},
		"ledger violation": {Scenario: "drop", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20,
			LedgerViolations: 1},
		"panic": {Scenario: "drop", Sessions: 64, Completed: 63, Panicked: 1,
			Chunks: 800, DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20},
		"no traffic": {Scenario: "drop", Sessions: 64, Completed: 64,
			DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20},
		// A baseline of another run proves nothing, however much better
		// the report looks against it.
		"other scenario": {Scenario: "spike", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20},
		"other population": {Scenario: "drop", Sessions: 128, Completed: 128,
			Chunks: 1600, DeadlineMissRate: 0.08, WastedCellularBytes: 1 << 20},
	} {
		if _, ok := CompareSwarm(base, fresh); ok {
			t.Errorf("%s: comparison passed", name)
		}
	}

	// A dirty BASELINE also fails: the comparison proves nothing if the
	// control run itself violated invariants.
	dirty := *base
	dirty.LedgerViolations = 2
	if _, ok := CompareSwarm(&dirty, better); ok {
		t.Error("ledger-violating baseline accepted")
	}

	// Baseline already at zero: holding zero passes, strict reduction is
	// not demanded of the impossible.
	zbase := &swarm.Report{Scenario: "drop", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0, WastedCellularBytes: 0}
	zfresh := &swarm.Report{Scenario: "drop", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0, WastedCellularBytes: 0}
	if rows, ok := CompareSwarm(zbase, zfresh); !ok {
		t.Errorf("hold-at-zero failed: %+v", rows)
	}
	zworse := &swarm.Report{Scenario: "drop", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0.01, WastedCellularBytes: 0}
	if _, ok := CompareSwarm(zbase, zworse); ok {
		t.Error("regression from a zero baseline accepted")
	}
}
