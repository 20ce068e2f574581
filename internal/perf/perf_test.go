package perf

import "testing"

func TestSuitesAreKnown(t *testing.T) {
	for _, name := range Suites() {
		scs, err := suiteScenarios(name)
		if err != nil || len(scs) == 0 {
			t.Fatalf("suite %s: %v (%d scenarios)", name, err, len(scs))
		}
	}
	if _, err := suiteScenarios("bogus"); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

// TestCoreDomainDeterminism runs every core scenario's domain pass twice
// and demands bit-identical exact metrics — the property the baseline
// gate depends on. (foldMetricTrials additionally enforces this across
// trials inside one run; here we check across runs.)
func TestCoreDomainDeterminism(t *testing.T) {
	for _, sc := range coreScenarios() {
		if sc.domain == nil {
			continue
		}
		a, err := sc.domain()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		b, err := sc.domain()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: metric count %d vs %d", sc.name, len(a), len(b))
		}
		for i := range a {
			if a[i].Gate == GateExact && a[i].Value != b[i].Value {
				t.Errorf("%s/%s: %v vs %v", sc.name, a[i].Name, a[i].Value, b[i].Value)
			}
		}
	}
}

// TestSessionFetchDeterminism runs the real-socket macro scenario twice
// (three trials each — foldMetricTrials also verifies within-run
// determinism) and compares the exact domain metrics across runs.
func TestSessionFetchDeterminism(t *testing.T) {
	sc := netmpScenarios()[0]
	if sc.name != "netmp_session_fetch" {
		t.Fatalf("scenario order changed: %s", sc.name)
	}
	a, err := runScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range a.Metrics {
		if am.Gate != GateExact {
			continue
		}
		bm := b.metric(am.Name)
		if bm == nil || bm.Value != am.Value {
			t.Errorf("%s: run A %v, run B %+v", am.Name, am.Value, bm)
		}
	}
	if m := a.metric("bytes_total"); m == nil || m.Value <= 0 {
		t.Fatalf("bytes_total: %+v", m)
	}
	if m := a.metric("unverified_chunks"); m == nil || m.Value != 0 {
		t.Fatalf("unverified_chunks: %+v", m)
	}
}

func TestRunSuiteCoreQuick(t *testing.T) {
	res, err := RunSuite("core", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite != "core" || res.Version != Version || len(res.Benches) != len(coreScenarios()) {
		t.Fatalf("suite result: %+v", res)
	}
	for _, b := range res.Benches {
		if b.AllocsOp == nil || b.BOp == nil {
			t.Errorf("%s: micro scenario without allocation counts", b.Name)
		}
	}
	// The two tuned hot paths must stay allocation-lean, or the baseline
	// gate in CI will fail anyway — catch it here first.
	if a := *res.bench("core_scheduler_tick").AllocsOp; a != 0 {
		t.Errorf("scheduler tick allocs/op %v, want 0", a)
	}
	if a := *res.bench("obs_handle_lookup").AllocsOp; a > 2 {
		t.Errorf("obs handle lookup allocs/op %v, want ≤ 2", a)
	}
}

var allocSink []byte

// TestCountAllocs pins the allocation counter: one 64-byte allocation a
// run reads 1 and 64, none reads 0, and a fraction of a count is
// truncated, not rounded.
func TestCountAllocs(t *testing.T) {
	one := func() { allocSink = make([]byte, 64) }
	if a, b := countAllocs(one, 100); a != 1 || b != 64 {
		t.Errorf("one 64 B allocation: %d allocs, %d B per run", a, b)
	}
	if a, b := countAllocs(func() {}, 100); a != 0 || b != 0 {
		t.Errorf("no allocation: %d allocs, %d B per run", a, b)
	}
	// After the warm-up call, three counted runs make five 64 B
	// allocations: 5/3 = 1.67 allocs and 106.67 B per run.
	call := 0
	some := func() {
		allocSink = make([]byte, 64)
		if call == 1 || call == 2 {
			allocSink = make([]byte, 64)
		}
		call++
	}
	if a, b := countAllocs(some, 3); a != 1 || b != 106 {
		t.Errorf("5 allocations over 3 runs: %d allocs, %d B per run; want 1 and 106", a, b)
	}
}

func TestFoldMetricTrialsRejectsNondeterminism(t *testing.T) {
	trials := [][]Metric{
		{{Name: "x", Value: 1, Gate: GateExact}, {Name: "y", Value: 2, Gate: GateMax}},
		{{Name: "x", Value: 1.5, Gate: GateExact}, {Name: "y", Value: 4, Gate: GateMax}},
	}
	if _, err := foldMetricTrials(trials); err == nil {
		t.Fatal("diverging exact metric accepted")
	}
	trials[1][0].Value = 1
	out, err := foldMetricTrials(trials)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Value != 3 { // median of {2, 4}
		t.Fatalf("median fold: %+v", out[1])
	}
}
