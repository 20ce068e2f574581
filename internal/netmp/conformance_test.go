package netmp

import (
	"testing"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/mptcp"
	"mpdash/internal/obs"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// toggleLog keeps the last state the scheduler requested per path.
type toggleLog map[string]bool

func (l toggleLog) Emit(e obs.Event) {
	if e.Type == "sched.toggle" {
		l[e.Path] = e.Str["on"] == "true"
	}
}

// fixedPredictor forecasts one value whatever it observes.
type fixedPredictor float64

func (fixedPredictor) Observe(float64)    {}
func (p fixedPredictor) Predict() float64 { return float64(p) }
func (fixedPredictor) Reset()             {}

// TestEngageDriversConform feeds the same (elapsed, D, α, done, left) rows
// through the three drivers of Algorithm 1 — core.Scheduler on the
// packet simulator, core.SimulateOnline on slots, and the Fetcher
// controller's engageCount — and checks that each one's decision is
// core.Engage's answer for the inputs that driver gathers: the window
// α·D − elapsed and the remaining demand are common; the estimates are
// the simulator's Holt-Winters forecasts for the first two (the slot
// simulator is fed the scheduler's preferred-path forecast) and the
// cumulative mean rate done/elapsed in the socket stack.
func TestEngageDriversConform(t *testing.T) {
	s := sim.New()
	names := []string{"wifi", "lte-a", "lte-b"} // cost order
	conn, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("w", 2.0, time.Second, 1), RTT: 50 * time.Millisecond, Cost: 0.1, Primary: true},
		{Name: "lte-a", Rate: trace.Constant("a", 3.0, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1.0},
		{Name: "lte-b", Rate: trace.Constant("b", 3.0, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 5.0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := conn.StartTransfer(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.RunUntilComplete(time.Minute) {
		t.Fatal("warm-up transfer stuck")
	}
	var est []float64 // bits/s; frozen while no transfer is active
	for _, n := range names {
		est = append(est, conn.Path(n).Estimate())
	}
	if est[0] <= 0 || est[1] <= 0 || est[2] <= 0 {
		t.Fatalf("warm-up left a path unmeasured: %v", est)
	}
	sch, err := core.NewScheduler(s, conn, 1)
	if err != nil {
		t.Fatal(err)
	}
	state := toggleLog{}
	sch.Obs = state

	// With ≈2/3/3 Mbps forecasts a 4 s window carries ≈1 MB on wifi,
	// ≈2.5 MB with lte-a and ≈4 MB with everything.
	rows := []struct {
		elapsed, d time.Duration
		alpha      float64
		done, left int64
	}{
		{0, 4 * time.Second, 1, 0, 500_000},                                      // wifi suffices from the start
		{0, 4 * time.Second, 1, 0, 1_500_000},                                    // one secondary
		{0, 4 * time.Second, 1, 0, 3_500_000},                                    // both
		{500 * time.Millisecond, 4500 * time.Millisecond, 1, 125_000, 400_000},   // mid-transfer, on pace
		{500 * time.Millisecond, 4500 * time.Millisecond, 1, 125_000, 2_000_000}, // mid-transfer, behind
		{500 * time.Millisecond, 4500 * time.Millisecond, 1, 1_000_000, 3_500_000},
		{2 * time.Second, 4 * time.Second, 0.75, 500_000, 200_000}, // α shrinks the window to 1 s
		{2 * time.Second, 4 * time.Second, 0.75, 500_000, 600_000}, // ... where the same demand needs help
		{3 * time.Second, 4 * time.Second, 0.75, 750_000, 100_000}, // inside the safety margin: all on
		{3500 * time.Millisecond, 4 * time.Second, 0.5, 10_000, 10_000},
	}
	seen := map[int]bool{}
	for i, r := range rows {
		windowSec := r.alpha*r.d.Seconds() - r.elapsed.Seconds()

		// Packet simulator: Enable at elapsed 0, advance, then report
		// progress — the evaluation under test.
		sch.Alpha = r.alpha
		if err := sch.Enable(r.done+r.left, r.d); err != nil {
			t.Fatal(err)
		}
		s.Advance(r.elapsed)
		var tr mptcp.Transfer
		sch.Govern(&tr)
		tr.OnProgress(r.done)
		want := core.Engage(float64(r.left*8), windowSec, est)
		seen[want] = true
		got := 0
		for k, n := range names[1:] {
			if state[n] {
				got++
				if got != k+1 {
					t.Errorf("row %d: scheduler engaged %s past a parked cheaper path: %v", i, n, state)
				}
			}
		}
		if got != want {
			t.Errorf("row %d: Scheduler engaged %d secondaries, kernel says %d (state %v)", i, got, want, state)
		}
		sch.Disable()

		// Slot simulator: slot 0 delivers `done` over wifi alone (the
		// cellular trace is dark there), so slot 1 decides at `elapsed`
		// and — wifi then being ample — is the only slot cellular can
		// carry bytes in.
		cfg := core.SlotSimConfig{
			WiFiMbps: []float64{1e6}, CellMbps: []float64{1}, Slot: time.Second,
			Size: r.done + r.left, Deadline: r.d, Alpha: r.alpha,
			Predictor: fixedPredictor(est[0]), SeedSlots: -1,
		}
		if r.elapsed > 0 {
			cfg.Slot = r.elapsed
			cfg.WiFiMbps = []float64{float64(r.done*8) / r.elapsed.Seconds() / 1e6, 1e6}
			cfg.CellMbps = []float64{0, 1}
		}
		res, err := core.SimulateOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSlot := core.Engage(float64(r.left*8), windowSec, est[:2]) > 0
		if gotSlot := res.CellularBytes > 0; gotSlot != wantSlot {
			t.Errorf("row %d: SimulateOnline cellular=%v, kernel says %v", i, gotSlot, wantSlot)
		}

		// Socket stack: every path's estimate is the cumulative mean rate;
		// before the first sample (elapsed < pressureWarmup with window
		// left) the driver engages nothing.
		rate := 0.0
		if r.elapsed > 0 {
			rate = float64(r.done) / r.elapsed.Seconds()
		}
		wantSock := core.Engage(float64(r.left), windowSec, []float64{rate, rate, rate})
		if windowSec > 0 && r.elapsed < pressureWarmup {
			wantSock = 0
		}
		if on, _, w := engageCount(r.elapsed, r.d, r.alpha, r.done, float64(r.left), 3); on != wantSock || w != windowSec {
			t.Errorf("row %d: engageCount = %d (window %v), kernel says %d (window %v)", i, on, w, wantSock, windowSec)
		}
	}
	for _, n := range []int{0, 1, 2} {
		if !seen[n] {
			t.Errorf("rows never exercised a %d-secondary answer", n)
		}
	}
}
