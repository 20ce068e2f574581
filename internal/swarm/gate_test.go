package swarm

import (
	"path/filepath"
	"strings"
	"testing"

	"mpdash/internal/audit"
)

func bound(v float64) *float64 { return &v }

func findGateRow(rows []GateRow, metric string) *GateRow {
	for i := range rows {
		if rows[i].Metric == metric {
			return &rows[i]
		}
	}
	return nil
}

func TestGateSwarm(t *testing.T) {
	g := &Gates{MaxMissRate: bound(0.10)}
	good := &Report{Scenario: "s", Sessions: 64, Completed: 64,
		Chunks: 800, DeadlineMissRate: 0.02}
	if rows, ok := good.Judge(g); !ok {
		t.Fatalf("healthy report failed: %+v", rows)
	}

	for name, rep := range map[string]*Report{
		"miss rate":   {Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, DeadlineMissRate: 0.2},
		"ledger":      {Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, LedgerViolations: 1},
		"panic":       {Scenario: "s", Sessions: 64, Completed: 63, Panicked: 1, Chunks: 800},
		"failed":      {Scenario: "s", Sessions: 64, Completed: 63, Failed: 1, Chunks: 800},
		"timed out":   {Scenario: "s", Sessions: 64, Completed: 63, TimedOut: 1, Chunks: 800},
		"unaccounted": {Scenario: "s", Sessions: 64, Completed: 60, Chunks: 800},
		"no traffic":  {Scenario: "s", Sessions: 64, Completed: 64},
	} {
		if _, ok := rep.Judge(g); ok {
			t.Errorf("%s: gate passed", name)
		}
	}

	// A stated bound is the bound: no default tightens it.
	lax := &Report{Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, DeadlineMissRate: 0.2}
	if _, ok := lax.Judge(&Gates{MaxMissRate: bound(0.3)}); !ok {
		t.Fatal("a 0.3 bound failed a 0.2 miss rate")
	}
	// An omitted bound is not checked.
	if rows, ok := lax.Judge(&Gates{}); !ok || findGateRow(rows, "deadline_miss_rate") != nil {
		t.Fatalf("omitted miss-rate bound checked: %v %+v", ok, rows)
	}

	// Without a stanza a run is judged on ledger violations, panics and
	// audit only.
	failed := &Report{Scenario: "s", Sessions: 64, Completed: 62, Failed: 1, TimedOut: 1,
		DeadlineMissRate: 0.9}
	if rows, ok := failed.Judge(nil); !ok {
		t.Errorf("no stanza: failed sessions failed the run: %+v", rows)
	}
	for name, rep := range map[string]*Report{
		"ledger": {Scenario: "s", Sessions: 64, Completed: 64, LedgerViolations: 1},
		"panic":  {Scenario: "s", Sessions: 64, Completed: 63, Panicked: 1},
	} {
		if _, ok := rep.Judge(nil); ok {
			t.Errorf("no stanza, %s: passed", name)
		}
	}
}

func TestGateSwarmMTTR(t *testing.T) {
	base := func() *Report {
		return &Report{Scenario: "chaos", Sessions: 64, Completed: 64,
			Chunks: 800, DeadlineMissRate: 0.02,
			Chaos: []ChaosEventReport{
				{Kind: ChaosOriginCrash, Recovered: true, MTTRS: 1.2},
				{Kind: ChaosOriginRestart, Recovered: true, MTTRS: 0.4},
			},
			MTTR: &Quantiles{P50: 0.8, P95: 1.2}}
	}
	g := &Gates{MaxMTTRP95S: bound(5)}

	if rows, ok := base().Judge(g); !ok {
		t.Fatalf("recovered chaos run failed the MTTR gate: %+v", rows)
	}

	// p95 over the bound fails.
	slow := base()
	slow.MTTR.P95 = 9
	if _, ok := slow.Judge(g); ok {
		t.Error("slow recovery passed the MTTR gate")
	}
	// An unrecovered event fails even with fast quantiles.
	unrec := base()
	unrec.Chaos[1].Recovered = false
	if _, ok := unrec.Judge(g); ok {
		t.Error("unrecovered event passed the MTTR gate")
	}
	// No chaos timeline at all fails: the gate demands the events ran.
	empty := base()
	empty.Chaos, empty.MTTR = nil, nil
	if _, ok := empty.Judge(g); ok {
		t.Error("chaos-free report passed the MTTR gate")
	}
	// Quantiles missing while events recovered: still a failure.
	noq := base()
	noq.MTTR = nil
	if _, ok := noq.Judge(g); ok {
		t.Error("report without MTTR quantiles passed the gate")
	}
	// Without the bound the same reports are not recovery-gated.
	if _, ok := empty.Judge(&Gates{}); !ok {
		t.Error("chaos-free report failed without an MTTR bound")
	}
	if _, ok := unrec.Judge(&Gates{}); !ok {
		t.Error("unrecovered event failed without an MTTR bound")
	}
}

func TestGateSwarmAudit(t *testing.T) {
	rep := &Report{Scenario: "s", Sessions: 64, Completed: 64,
		Chunks: 800, Audit: &audit.Result{Watermark: 10, Settled: 10}}
	for _, g := range []*Gates{nil, {}} {
		if rows, ok := rep.Judge(g); !ok {
			t.Fatalf("clean audited report failed (gates %v): %+v", g, rows)
		}
	}
	rep.Audit.Violations = []audit.Violation{{Invariant: audit.InvLeak, Detail: "leak"}}
	for _, g := range []*Gates{nil, {}} {
		if _, ok := rep.Judge(g); ok {
			t.Errorf("audited report with violations passed (gates %v)", g)
		}
	}
}

func TestGateSwarmMinThroughput(t *testing.T) {
	rep := func(wallS float64) *Report {
		return &Report{Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800, WallS: wallS}
	}
	for _, c := range []struct {
		name  string
		wallS float64
		floor *float64
		pass  bool
		value float64
	}{
		{"floor met", 10, bound(80), true, 80},
		{"floor missed", 10, bound(80.5), false, 80},
		{"no measured wall", 0, bound(40), false, 0},
		{"floor unset", 10, nil, true, 0},
	} {
		rows, ok := rep(c.wallS).Judge(&Gates{MinChunksPerS: c.floor})
		if ok != c.pass {
			t.Errorf("%s: pass = %v, want %v: %+v", c.name, ok, c.pass, rows)
		}
		r := findGateRow(rows, "chunks_per_s")
		if (r != nil) != (c.floor != nil) {
			t.Errorf("%s: throughput row %+v, want present = %v", c.name, r, c.floor != nil)
			continue
		}
		if r != nil && r.Value != c.value {
			t.Errorf("%s: throughput %v, want %v", c.name, r.Value, c.value)
		}
	}
}

func TestGateSwarmCache(t *testing.T) {
	rep := func() *Report {
		return &Report{Scenario: "s", Sessions: 64, Completed: 64, Chunks: 800,
			Cache: &CacheReport{OffloadRatio: 0.9, HitRate: 0.8}}
	}
	g := &Gates{MinOffload: bound(0.5), MinHitRate: bound(0.5)}
	if rows, ok := rep().Judge(g); !ok {
		t.Fatalf("healthy cached run failed: %+v", rows)
	}
	uncached := rep()
	uncached.Cache = nil
	fillErr := rep()
	fillErr.Cache.FillErrors = 1
	lowHit := rep()
	lowHit.Cache.HitRate = 0.4
	lowOffload := rep()
	lowOffload.Cache.OffloadRatio = 0.4
	for name, r := range map[string]*Report{
		"no cache tier": uncached, "fill error": fillErr, "hit rate": lowHit, "offload": lowOffload,
	} {
		if _, ok := r.Judge(g); ok {
			t.Errorf("%s: gate passed", name)
		}
	}
	// Without a cache bound neither the tier nor its fill errors are gated.
	if _, ok := uncached.Judge(&Gates{}); !ok {
		t.Error("uncached run failed without a cache bound")
	}
	if _, ok := fillErr.Judge(&Gates{}); !ok {
		t.Error("fill errors failed a run without a cache bound")
	}
}

func TestWriteGateRows(t *testing.T) {
	rows := []GateRow{
		{Metric: "deadline_miss_rate", Value: 0.13, Limit: "≤ 0.1", Verdict: verdictFail},
		{Metric: "panicked", Limit: "= 0", Verdict: verdictOK},
		{Metric: "cellular_byte_share", Value: 0.2, Verdict: verdictInfo},
	}
	var sb strings.Builder
	if err := WriteGateRows(&sb, rows, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"METRIC", "deadline_miss_rate", "0.13", "≤ 0.1", "FAIL",
		"gates: 1 ok, 1 FAILED, 1 info"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var fb strings.Builder
	if err := WriteGateRows(&fb, rows, true); err != nil {
		t.Fatal(err)
	}
	if f := fb.String(); strings.Contains(f, "panicked") || strings.Contains(f, "cellular_byte_share") ||
		!strings.Contains(f, "FAIL") || !strings.Contains(f, "gates: 1 ok, 1 FAILED, 1 info") {
		t.Errorf("failures-only table:\n%s", f)
	}
	// Failures only, and nothing failed: the count alone.
	var qb strings.Builder
	if err := WriteGateRows(&qb, rows[1:], true); err != nil {
		t.Fatal(err)
	}
	if qb.String() != "gates: 1 ok, 1 info\n" {
		t.Errorf("quiet pass printed %q", qb.String())
	}
}

// TestScenarioGates: every committed scenario states a pass bar that
// decodes and validates; a report exactly at every stated bound passes,
// and one step past any single bound fails.
func TestScenarioGates(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			scn, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := scn.withDefaults().Validate(); err != nil {
				t.Fatal(err)
			}
			g := scn.Gates
			if g == nil {
				t.Fatal("no gates stanza")
			}
			atBounds := func() *Report {
				r := &Report{Scenario: scn.Name, Sessions: scn.Sessions, Completed: scn.Sessions,
					Chunks: 1000, WallS: 1}
				if v := g.MaxMissRate; v != nil {
					r.DeadlineMissRate = *v
				}
				if v := g.MinChunksPerS; v != nil {
					r.WallS = float64(r.Chunks) / *v
				}
				if v := g.MaxMTTRP95S; v != nil {
					r.Chaos = []ChaosEventReport{{Kind: ChaosOriginCrash, Recovered: true, MTTRS: *v}}
					r.MTTR = &Quantiles{P50: *v, P95: *v}
				}
				if g.MinOffload != nil || g.MinHitRate != nil {
					r.Cache = &CacheReport{OffloadRatio: 1, HitRate: 1}
					if v := g.MinOffload; v != nil {
						r.Cache.OffloadRatio = *v
					}
					if v := g.MinHitRate; v != nil {
						r.Cache.HitRate = *v
					}
				}
				return r
			}
			if rows, ok := atBounds().Judge(g); !ok {
				t.Fatalf("report at the bounds failed: %+v", rows)
			}
			past := map[string]func(*Report){}
			if g.MaxMissRate != nil {
				past["max_miss_rate"] = func(r *Report) { r.DeadlineMissRate += 1e-3 }
			}
			if g.MinChunksPerS != nil {
				past["min_chunks_per_s"] = func(r *Report) { r.Chunks-- }
			}
			if g.MaxMTTRP95S != nil {
				past["max_mttr_p95_s"] = func(r *Report) { r.MTTR.P95 += 1e-3 }
			}
			if g.MinOffload != nil {
				past["min_offload"] = func(r *Report) { r.Cache.OffloadRatio -= 1e-3 }
			}
			if g.MinHitRate != nil {
				past["min_hit_rate"] = func(r *Report) { r.Cache.HitRate -= 1e-3 }
			}
			if len(past) == 0 {
				t.Fatal("gates stanza states no bound")
			}
			for name, step := range past {
				r := atBounds()
				step(r)
				if rows, ok := r.Judge(g); ok {
					t.Errorf("one step past %s passed: %+v", name, rows)
				}
			}
		})
	}
}

func TestValidateGates(t *testing.T) {
	for name, g := range map[string]Gates{
		"negative miss rate": {MaxMissRate: bound(-0.1)},
		"miss rate over 1":   {MaxMissRate: bound(1.5)},
		"negative mttr":      {MaxMTTRP95S: bound(-1)},
		"negative offload":   {MinOffload: bound(-0.5)},
		"hit rate over 1":    {MinHitRate: bound(2)},
		"negative floor":     {MinChunksPerS: bound(-40)},
	} {
		scn := tinyScenario(4)
		scn.Gates = &g
		if err := scn.withDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "gates") {
			t.Errorf("%s: %v", name, err)
		}
	}
	scn := tinyScenario(4)
	scn.Gates = &Gates{MaxMissRate: bound(0), MinOffload: bound(1), MinChunksPerS: bound(0)}
	if err := scn.withDefaults().Validate(); err != nil {
		t.Errorf("bounds at the edges rejected: %v", err)
	}
}
