package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestOptimalTwoPathClosedForm(t *testing.T) {
	// Paper Table 2, SYNTH rows: WiFi 3.8 Mbps, 5 MB file.
	// D=8s: optimal cell ≈ (5MB - 3.8Mbps*8s) / 5MB = 24%.
	slot := 50 * time.Millisecond
	mk := func(mbps float64, secs float64) []float64 {
		n := int(secs / slot.Seconds())
		out := make([]float64, n)
		for i := range out {
			out[i] = mbps
		}
		return out
	}
	cases := []struct {
		deadlineSec float64
		wantFrac    float64
	}{
		{8, 0.24}, {9, 0.145}, {10, 0.05},
	}
	for _, c := range cases {
		cell, ok := OptimalTwoPath(mk(3.8, c.deadlineSec), mk(3.0, c.deadlineSec), slot, 5_000_000)
		if !ok {
			t.Fatalf("D=%vs infeasible", c.deadlineSec)
		}
		frac := cell / 5_000_000
		if math.Abs(frac-c.wantFrac) > 0.01 {
			t.Errorf("D=%vs: optimal cell frac = %.3f, want ≈%.3f", c.deadlineSec, frac, c.wantFrac)
		}
	}
}

func TestOptimalTwoPathInfeasible(t *testing.T) {
	slot := time.Second
	cell, ok := OptimalTwoPath([]float64{1}, []float64{1}, slot, 10_000_000)
	if ok {
		t.Error("clearly infeasible case reported feasible")
	}
	if cell <= 0 {
		t.Error("infeasible case should still report cellular capacity used")
	}
}

func TestOptimalTwoPathWiFiSufficient(t *testing.T) {
	cell, ok := OptimalTwoPath([]float64{100, 100}, []float64{10, 10}, time.Second, 1_000_000)
	if !ok || cell != 0 {
		t.Errorf("cell=%v ok=%v, want 0,true", cell, ok)
	}
}

func TestMinCostScheduleValidation(t *testing.T) {
	d := time.Second
	if _, err := MinCostSchedule(nil, nil, d, 100, 10); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := MinCostSchedule([][]float64{{1}}, []float64{1, 2}, d, 100, 10); err == nil {
		t.Error("cost length mismatch accepted")
	}
	if _, err := MinCostSchedule([][]float64{{1}, {1, 2}}, []float64{1, 2}, d, 100, 10); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := MinCostSchedule([][]float64{{1}}, []float64{1}, d, 0, 10); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := MinCostSchedule([][]float64{{1}}, []float64{1}, d, 100, 0); err == nil {
		t.Error("zero quantum accepted")
	}
}

func TestMinCostScheduleInfeasible(t *testing.T) {
	// One slot, 1 bit/s: cannot carry a megabyte.
	plan, err := MinCostSchedule([][]float64{{1}}, []float64{1}, time.Second, 1_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("infeasible plan reported feasible")
	}
}

func TestMinCostSchedulePrefersCheapInterface(t *testing.T) {
	// Two interfaces, each with 2 slots of 8 Mbps (1 MB/slot at 1s).
	// Need 2 MB: the cheap interface's two slots alone suffice, so the
	// expensive one must carry nothing.
	bw := [][]float64{
		{8e6, 8e6},
		{8e6, 8e6},
	}
	plan, err := MinCostSchedule(bw, []float64{1, 10}, time.Second, 2_000_000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("feasible case reported infeasible")
	}
	if plan.Bytes[1] != 0 {
		t.Errorf("expensive interface carried %v bytes", plan.Bytes[1])
	}
	if plan.Bytes[0] < 2_000_000*0.99 {
		t.Errorf("cheap interface carried only %v bytes", plan.Bytes[0])
	}
}

func TestMinCostScheduleSpillsToExpensive(t *testing.T) {
	// Cheap interface can carry 1 MB total, need 1.5 MB: expensive must
	// carry the remainder.
	bw := [][]float64{
		{8e6},
		{8e6},
	}
	plan, err := MinCostSchedule(bw, []float64{1, 10}, time.Second, 1_500_000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("feasible case reported infeasible")
	}
	if plan.Bytes[0] == 0 || plan.Bytes[1] == 0 {
		t.Errorf("split = %v, both interfaces must carry", plan.Bytes)
	}
}

// bruteForce enumerates all 2^items subsets for small instances.
func bruteForce(bw [][]float64, cost []float64, d time.Duration, S int64) (best float64, feasible bool) {
	type item struct{ bytes, value float64 }
	var items []item
	for i := range bw {
		for _, b := range bw[i] {
			by := b / 8 * d.Seconds()
			if by > 0 {
				items = append(items, item{by, cost[i] * by})
			}
		}
	}
	best = math.MaxFloat64
	for mask := 0; mask < 1<<len(items); mask++ {
		var w, v float64
		for k, it := range items {
			if mask&(1<<k) != 0 {
				w += it.bytes
				v += it.value
			}
		}
		if w >= float64(S) && v < best {
			best = v
			feasible = true
		}
	}
	return best, feasible
}

func TestMinCostScheduleMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2
		slots := 1 + rng.Intn(4)
		bw := make([][]float64, n)
		for i := range bw {
			bw[i] = make([]float64, slots)
			for j := range bw[i] {
				bw[i][j] = float64(1+rng.Intn(8)) * 8e6 // whole MBs per slot
			}
		}
		cost := []float64{float64(1 + rng.Intn(3)), float64(1 + rng.Intn(9))}
		S := int64((1 + rng.Intn(slots*4)) * 1_000_000)
		plan, err := MinCostSchedule(bw, cost, time.Second, S, 1_000_000)
		if err != nil {
			return false
		}
		want, feasible := bruteForce(bw, cost, time.Second, S)
		if plan.Feasible != feasible {
			return false
		}
		if !feasible {
			return true
		}
		return math.Abs(plan.Cost-want) < want*1e-9+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinCostSchedulePlanInternallyConsistent(t *testing.T) {
	bw := [][]float64{
		{8e6, 4e6, 8e6},
		{6e6, 6e6, 6e6},
	}
	plan, err := MinCostSchedule(bw, []float64{1, 5}, time.Second, 2_200_000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var total, cost float64
	costs := []float64{1, 5}
	for i := range plan.Use {
		var bytes float64
		for j, used := range plan.Use[i] {
			if used {
				bytes += bw[i][j] / 8
			}
		}
		if math.Abs(bytes-plan.Bytes[i]) > 1 {
			t.Errorf("interface %d: Use implies %v bytes, Bytes says %v", i, bytes, plan.Bytes[i])
		}
		total += bytes
		cost += bytes * costs[i]
	}
	if total < 2_200_000 {
		t.Errorf("plan covers %v < S", total)
	}
	if math.Abs(cost-plan.Cost) > plan.Cost*0.01+1 {
		t.Errorf("recomputed cost %v != plan.Cost %v", cost, plan.Cost)
	}
}

// memPerRun is testing.AllocsPerRun with a byte count: op once, then runs
// times on one P; mallocs and bytes per run, truncated.
func memPerRun(runs int, op func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMinCostScheduleAllocsPinned: a Table 2-shaped instance (two
// interfaces across 30 half-second slots, 4 MB at a 4 KiB quantum) has a
// pinned plan, and its allocations and bytes may grow by at most 15 %
// over the counts recorded here.
func TestMinCostScheduleAllocsPinned(t *testing.T) {
	const (
		wantCost   = 3993750 // all of it on the cheap interface
		baseAllocs = 75
		baseBytes  = 505985
	)
	bw := make([][]float64, 2)
	for i := range bw {
		bw[i] = make([]float64, 30)
		for j := range bw[i] {
			bw[i][j] = 2e6 + float64((i+1)*(j%7))*300e3
		}
	}
	solve := func() *SlotPlan {
		p, err := MinCostSchedule(bw, []float64{1, 5}, 500*time.Millisecond, 4_000_000, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := solve(); !p.Feasible || p.Cost != wantCost || p.Bytes[0] != wantCost {
		t.Errorf("plan: feasible %v, cost %v, cheap-interface bytes %v; want true, %v, %v",
			p.Feasible, p.Cost, p.Bytes[0], wantCost, wantCost)
	}
	allocs, bytes := memPerRun(100, func() { solve() })
	if float64(allocs) > baseAllocs*1.15 || float64(bytes) > baseBytes*1.15 {
		t.Errorf("MinCostSchedule: %d allocs, %d B per run; want at most %v and %v (base × 1.15)",
			allocs, bytes, baseAllocs*1.15, baseBytes*1.15)
	}
}
