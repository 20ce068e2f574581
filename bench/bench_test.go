package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesRunner holds BENCHMARK.json and the runner's own
// lists together: same workloads, same metric names and units in the
// same order, every name well-formed and used once, counts inside the
// driver's limits.
func TestContractMatchesRunner(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner (limit 2 to 8)", n, len(workloads))
	}
	for i, w := range c.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, listed []contractMetric, specs []spec, limit int, bounded bool) {
		t.Helper()
		if len(listed) != len(specs) || len(listed) < 1 || len(listed) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the runner (limit %d)", len(listed), kind, len(specs), limit)
		}
		for i, m := range listed {
			use(m.Name)
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the runner", kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not well-formed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, 16, true)
	check("per-layer", c.PerLayer, perLayer, 128, false)
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", c.EndToEnd[0])
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// TestKeyStream: the same seed gives the same keys, another seed gives
// others, and every three draws carry each level once.
func TestKeyStream(t *testing.T) {
	draw := func(seed int64) (keys [][2]int) {
		k := newKeyStream(seed, 0, 1.0)
		for i := 0; i < 300; i++ {
			c, l := k.next()
			keys = append(keys, [2]int{c, l})
		}
		return keys
	}
	a, b, other := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 drew two different key sequences")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 drew the same key sequence")
	}
	for i := 0; i < len(a); i += 3 {
		if got := a[i][1] + a[i+1][1] + a[i+2][1]; got != 0+1+2 {
			t.Fatalf("draws %d..%d carry levels %d %d %d", i, i+2, a[i][1], a[i+1][1], a[i+2][1])
		}
	}
}

// TestHostRef: without a yardstick wall time stays wall time; with one, a
// reading is a positive number and a pass leaves the queue the length it
// found it, so every pass is the same work.
func TestHostRef(t *testing.T) {
	var none *hostRef
	if s := none.slowdown(); s != 1 {
		t.Errorf("a nil yardstick reads %v, want 1", s)
	}
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if s := h.slowdown(); !(s > 0) || s > 1e3 {
		t.Errorf("reading %v", s)
	}
	if len(h.queue) != hostRefQueue {
		t.Errorf("queue holds %d events after a reading, want %d", len(h.queue), hostRefQueue)
	}
	if d := h.timed(func() { time.Sleep(10 * time.Millisecond) }); d <= 0 {
		t.Errorf("timed returned %v", d)
	}
}

func quick(t *testing.T, w workload, trace bool) (*outcome, resultLine) {
	t.Helper()
	o, line, err := runPass(w, runConfig{seed: 1, window: time.Second, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct {
		t.Fatalf("%s: incorrect: %v", w.name, o.problems)
	}
	return o, line
}

// TestQuickPasses runs one-second passes: a timed pass reports every
// end-to-end metric and none is 0, a traced pass reports exactly the
// per-layer list with ledger parts that sum to the traced CPU, and
// sim-field's results agree exactly across two runs.
func TestQuickPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sockets for several seconds")
	}
	od := workloads[0]
	_, line := quick(t, od, false)
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%s reported %d end-to-end metrics, want %d", od.name, len(line.Metrics), len(endToEnd))
	}
	for n, m := range line.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", od.name, n, m.Value)
		}
	}

	_, line = quick(t, od, true)
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%s reported %d per-layer metrics, want %d", od.name, len(line.Metrics), len(perLayer))
	}
	sum := line.Metrics["ledger.attributed_us_per_chunk"].Value + line.Metrics["ledger.residual_us_per_chunk"].Value
	if cpu := line.Metrics["traced.cpu_us_per_chunk"].Value; cpu <= 0 || sum < cpu*(1-1e-9) || sum > cpu*(1+1e-9) {
		t.Errorf("ledger parts sum to %v, traced CPU per chunk is %v", sum, cpu)
	}

	sf := workloads[len(workloads)-1]
	first, _ := quick(t, sf, false)
	second, _ := quick(t, sf, false)
	if len(first.exact) == 0 || !reflect.DeepEqual(first.exact, second.exact) {
		t.Errorf("sim-field results differ across two runs:\n%v\n%v", first.exact, second.exact)
	}
}
