package perf

import (
	"testing"

	"mpdash/internal/swarm"
)

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
