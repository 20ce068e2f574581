package perf

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpdash/internal/audit"
	"mpdash/internal/swarm"
)

func num(v float64) *float64 { return &v }

// makeSuite builds a one-bench suite with the given allocation counts
// and domain metrics.
func makeSuite(bop, allocs float64, metrics ...Metric) *SuiteResult {
	return &SuiteResult{
		Version: Version, Suite: "core", Env: CaptureEnv(),
		Benches: []Bench{{
			Name: "bench_a", BOp: num(bop), AllocsOp: num(allocs),
			Metrics: metrics,
		}},
	}
}

func findRow(rows []DiffRow, bench, metric string) *DiffRow {
	for i := range rows {
		if rows[i].Bench == bench && rows[i].Metric == metric {
			return &rows[i]
		}
	}
	return nil
}

func TestCompareImprovementPasses(t *testing.T) {
	base := makeSuite(64, 2)
	fresh := makeSuite(16, 1) // leaner
	rows, ok := CompareSuites(base, fresh)
	if !ok {
		t.Fatalf("improvement failed the gate: %+v", rows)
	}
	if r := findRow(rows, "bench_a", "allocs/op"); r.Delta() >= 0 {
		t.Fatalf("allocs delta %v, want negative", r.Delta())
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	// The limit in float64 arithmetic, as the gate computes it.
	base := 20.0
	limit := base * (1 + countTol)
	rows, ok := CompareSuites(makeSuite(0, base), makeSuite(0, limit))
	if !ok {
		t.Fatalf("exactly-at-limit must pass (gate is fresh > limit): %+v", rows)
	}
	rows, ok = CompareSuites(makeSuite(0, base), makeSuite(0, math.Nextafter(limit, math.Inf(1))))
	if ok {
		t.Fatal("just-over-limit must fail")
	}
	if r := findRow(rows, "bench_a", "allocs/op"); r == nil || r.Verdict != VerdictFail {
		t.Fatalf("allocs/op row: %+v", r)
	}
}

func TestCompareZeroAllocContract(t *testing.T) {
	base := makeSuite(0, 0)
	fresh := makeSuite(8, 1) // any alloc on a zero-alloc path fails
	rows, ok := CompareSuites(base, fresh)
	if ok {
		t.Fatal("zero-alloc contract not enforced")
	}
	r := findRow(rows, "bench_a", "allocs/op")
	if r == nil || r.Verdict != VerdictFail || !strings.Contains(r.Note, "zero-alloc") {
		t.Fatalf("allocs/op row: %+v", r)
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := makeSuite(0, 0,
		Metric{Name: "gated", Value: 5, Gate: GateExact},
		Metric{Name: "fyi", Value: 1, Gate: GateInfo})
	fresh := makeSuite(0, 0) // both metrics gone
	rows, ok := CompareSuites(base, fresh)
	if ok {
		t.Fatal("missing gated metric passed")
	}
	if r := findRow(rows, "bench_a", "gated"); r == nil || r.Verdict != VerdictFail {
		t.Fatalf("gated row: %+v", r)
	}
	if r := findRow(rows, "bench_a", "fyi"); r != nil {
		t.Fatalf("missing info metric must not produce a row, got %+v", r)
	}
}

func TestCompareMissingAndNewBench(t *testing.T) {
	base := makeSuite(0, 0)
	fresh := &SuiteResult{Version: Version, Suite: "core", Env: CaptureEnv(),
		Benches: []Bench{{Name: "bench_b", AllocsOp: num(1)}}}
	rows, ok := CompareSuites(base, fresh)
	if ok {
		t.Fatal("bench missing from fresh run passed")
	}
	if r := findRow(rows, "bench_a", "(bench)"); r == nil || r.Verdict != VerdictFail {
		t.Fatalf("missing bench row: %+v", r)
	}
	if r := findRow(rows, "bench_b", "(bench)"); r == nil || r.Verdict != VerdictNew {
		t.Fatalf("new bench row: %+v", r)
	}
}

func TestCompareGateSemantics(t *testing.T) {
	base := makeSuite(0, 0,
		Metric{Name: "x", Value: 10, Gate: GateExact},
		Metric{Name: "hi", Value: 0.10, Gate: GateMax, Abs: 0.05},
		Metric{Name: "lo", Value: 60, Gate: GateMin, Abs: 4},
		Metric{Name: "fyi", Value: 7, Gate: GateInfo})

	good := makeSuite(0, 0,
		Metric{Name: "x", Value: 10, Gate: GateExact},
		Metric{Name: "hi", Value: 0.14, Gate: GateMax, Abs: 0.05}, // ≤ 0.15
		Metric{Name: "lo", Value: 57, Gate: GateMin, Abs: 4},      // ≥ 56
		Metric{Name: "fyi", Value: 900, Gate: GateInfo})           // wild but info
	if rows, ok := CompareSuites(base, good); !ok {
		t.Fatalf("within-gates run failed: %+v", rows)
	} else if r := findRow(rows, "bench_a", "fyi"); r == nil || r.Verdict != VerdictInfo {
		t.Fatalf("info row: %+v", r)
	}

	for _, bad := range []Metric{
		{Name: "x", Value: 10.000001, Gate: GateExact},
		{Name: "hi", Value: 0.16, Gate: GateMax, Abs: 0.05},
		{Name: "lo", Value: 55, Gate: GateMin, Abs: 4},
	} {
		fresh := makeSuite(0, 0,
			Metric{Name: "x", Value: 10, Gate: GateExact},
			Metric{Name: "hi", Value: 0.10, Gate: GateMax, Abs: 0.05},
			Metric{Name: "lo", Value: 60, Gate: GateMin, Abs: 4},
			Metric{Name: "fyi", Value: 7, Gate: GateInfo})
		m := fresh.Benches[0].metric(bad.Name)
		m.Value = bad.Value
		if _, ok := CompareSuites(base, fresh); ok {
			t.Errorf("%s gate did not trip on %v", bad.Name, bad.Value)
		}
	}
}

func TestLoadBaselineRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"corrupt.json":  `{"version": 2, "suites": {`,
		"empty.json":    `{}`,
		"badver.json":   `{"version": 1, "suites": {"core": {"version": 1, "suite": "core", "benches": [{"name": "x"}]}}}`,
		"nosuites.json": `{"version": 2, "suites": {}}`,
		"emptysuite.json": `{"version": 2, "suites": {"core": {"version": 2, "suite": "core",
			"benches": []}}}`,
	}
	for name, content := range cases {
		if _, err := LoadBaseline(write(name, content)); err == nil {
			t.Errorf("%s: LoadBaseline accepted it", name)
		}
	}
	if _, err := LoadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("absent file: LoadBaseline accepted it")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	b := &Baseline{Version: Version, Note: "test",
		Suites: map[string]*SuiteResult{"core": makeSuite(0, 0,
			Metric{Name: "m", Value: 3, Gate: GateExact})}}
	if err := b.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "test" || got.Suites["core"].Benches[0].metric("m").Value != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

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

func TestRenderTableAndSummarize(t *testing.T) {
	rows := []DiffRow{
		{Bench: "a", Metric: "allocs/op", Base: 100, Fresh: 130, Limit: "≤ 115", Verdict: VerdictFail},
		{Bench: "a", Metric: "B/op", Base: 0, Fresh: 0, Limit: "= 0", Verdict: VerdictOK},
		{Bench: "a", Metric: "share", Fresh: 0.2, Verdict: VerdictInfo},
	}
	var sb strings.Builder
	if err := RenderTable(&sb, rows, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"BENCH", "allocs/op", "FAIL", "+30.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var fb strings.Builder
	if err := RenderTable(&fb, rows, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fb.String(), "B/op") {
		t.Error("failures-only table shows ok rows")
	}
	sum := Summarize(rows)
	if !strings.Contains(sum, "1 ok") || !strings.Contains(sum, "1 FAILED") || !strings.Contains(sum, "1 info") {
		t.Errorf("summary %q", sum)
	}
}
