package abr

import (
	"testing"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// session wires the full stack: sim + 2-path conn + scheduler + adapter +
// player, then plays n chunks and returns the report.
func session(t *testing.T, wifi, lte *trace.Trace, algo dash.RateAdapter, cfg *AdapterConfig, n int) *dash.Report {
	t.Helper()
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: wifi, RTT: 50 * time.Millisecond, Cost: 0.1, Primary: true},
			{Name: "lte", Rate: lte, RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var adapter dash.Adapter
	if cfg != nil {
		sched, err := core.NewScheduler(s, conn, core.DefaultAlpha)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAdapter(sched, conn, *cfg)
		if err != nil {
			t.Fatal(err)
		}
		adapter = a
	}
	p, err := dash.NewPlayer(s, conn, dash.BigBuckBunny(), algo, adapter)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

const testChunks = 50

// sessionWithAlgo plays n chunks of the canonical W3.8/L3.0 lab setup
// with the given algorithm, ungoverned.
func sessionWithAlgo(t *testing.T, algo dash.RateAdapter, n int) *dash.Report {
	t.Helper()
	return session(t, w38(), l30(), algo, nil, n)
}

func w38() *trace.Trace { return trace.Constant("w", 3.8, time.Second, 1) }
func l30() *trace.Trace { return trace.Constant("l", 3.0, time.Second, 1) }

func TestNewAdapterValidation(t *testing.T) {
	s := sim.New()
	conn, _ := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "w", Rate: w38(), Primary: true},
	}})
	sched, _ := core.NewScheduler(s, conn, 1)
	if _, err := NewAdapter(nil, conn, AdapterConfig{}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewAdapter(sched, nil, AdapterConfig{}); err == nil {
		t.Error("nil conn accepted")
	}
	if _, err := NewAdapter(sched, conn, AdapterConfig{Category: BufferBased}); err == nil {
		t.Error("buffer-based without BBA accepted")
	}
	if a, err := NewAdapter(sched, conn, AdapterConfig{}); err != nil || a == nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFESTIVECellularSavings(t *testing.T) {
	// The Fig. 7a experiment at W3.8/L3.0: MP-DASH (both deadline
	// policies) must slash steady-state cellular bytes versus vanilla
	// MPTCP without hurting the playback bitrate or stalling.
	base := session(t, w38(), l30(), NewFESTIVE(), nil, testChunks)
	if base.CellularBytes("lte") == 0 {
		t.Fatal("baseline used no cellular; experiment is vacuous")
	}
	for _, pol := range []DeadlinePolicy{DurationBased, RateBased} {
		cfg := &AdapterConfig{Policy: pol, Category: ThroughputBased}
		rep := session(t, w38(), l30(), NewFESTIVE(), cfg, testChunks)
		if rep.Stalls != 0 {
			t.Errorf("%v: %d stalls", pol, rep.Stalls)
		}
		saving := 1 - float64(rep.CellularBytes("lte"))/float64(base.CellularBytes("lte"))
		if saving < 0.5 {
			t.Errorf("%v: cellular saving %.1f%%, want > 50%%", pol, saving*100)
		}
		if rep.SteadyStateAvgBitrateMbps < base.SteadyStateAvgBitrateMbps*0.92 {
			t.Errorf("%v: bitrate dropped %v -> %v", pol, base.SteadyStateAvgBitrateMbps, rep.SteadyStateAvgBitrateMbps)
		}
	}
}

func TestRateBeatsDurationForFESTIVE(t *testing.T) {
	// Fig. 7a: rate-based deadlines save at least as much as
	// duration-based (they budget cellular against the average bitrate).
	dur := session(t, w38(), l30(), NewFESTIVE(),
		&AdapterConfig{Policy: DurationBased, Category: ThroughputBased}, testChunks)
	rate := session(t, w38(), l30(), NewFESTIVE(),
		&AdapterConfig{Policy: RateBased, Category: ThroughputBased}, testChunks)
	// Allow a little noise: rate-based must not be clearly worse.
	if float64(rate.CellularBytes("lte")) > float64(dur.CellularBytes("lte"))*1.15 {
		t.Errorf("rate-based LTE %d clearly worse than duration-based %d",
			rate.CellularBytes("lte"), dur.CellularBytes("lte"))
	}
}

func TestGPACWithMPDash(t *testing.T) {
	base := session(t, w38(), l30(), NewGPAC(), nil, testChunks)
	cfg := &AdapterConfig{Policy: RateBased, Category: ThroughputBased}
	rep := session(t, w38(), l30(), NewGPAC(), cfg, testChunks)
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d", rep.Stalls)
	}
	if rep.CellularBytes("lte") >= base.CellularBytes("lte") {
		t.Errorf("no saving: %d vs %d", rep.CellularBytes("lte"), base.CellularBytes("lte"))
	}
}

func TestBBAOscillationAndBBACFix(t *testing.T) {
	// Fig. 3: capacity ≈3.4 Mbps sits between rungs 2.41 and 3.94.
	// Original BBA oscillates; BBA-C locks to the sustainable rung.
	wifi := trace.Constant("w", 2.2, time.Second, 1)
	lte := trace.Constant("l", 1.2, time.Second, 1)

	bba := session(t, wifi, lte, NewBBA(), nil, testChunks)
	bbac := session(t, wifi, lte, NewBBAC(), nil, testChunks)
	if bbac.QualitySwitches >= bba.QualitySwitches {
		t.Errorf("BBA-C switches %d not below BBA %d", bbac.QualitySwitches, bba.QualitySwitches)
	}
	if bba.QualitySwitches < 4 {
		t.Errorf("BBA only switched %d times; oscillation not reproduced", bba.QualitySwitches)
	}
}

func TestBufferBasedAdapterSavesForBBAC(t *testing.T) {
	// Fig. 7c at W2.2/L1.2: BBA-C plus MP-DASH saves cellular data where
	// plain BBA could not (§7.3.2).
	wifi := trace.Constant("w", 2.2, time.Second, 1)
	lte := trace.Constant("l", 1.2, time.Second, 1)

	algo := NewBBAC()
	base := session(t, wifi, lte, algo, nil, testChunks)

	algo2 := NewBBAC()
	cfg := &AdapterConfig{Policy: RateBased, Category: BufferBased, BBA: algo2}
	rep := session(t, wifi, lte, algo2, cfg, testChunks)

	if base.CellularBytes("lte") == 0 {
		t.Skip("baseline used no cellular on this profile")
	}
	saving := 1 - float64(rep.CellularBytes("lte"))/float64(base.CellularBytes("lte"))
	if saving < 0.25 {
		t.Errorf("BBA-C saving %.1f%%, want > 25%%", saving*100)
	}
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d", rep.Stalls)
	}
}

func TestOmegaGuardSkipsStartup(t *testing.T) {
	// The adapter must leave the startup phase (low buffer) ungoverned.
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: w38(), RTT: 50 * time.Millisecond, Primary: true},
			{Name: "lte", Rate: l30(), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := core.NewScheduler(s, conn, 1)
	a, err := NewAdapter(sched, conn, AdapterConfig{Policy: RateBased, Category: ThroughputBased})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dash.NewPlayer(s, conn, dash.BigBuckBunny(), NewFESTIVE(), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(testChunks); err != nil {
		t.Fatal(err)
	}
	if a.Skipped() == 0 {
		t.Error("no chunks skipped: Ω guard never engaged during startup")
	}
	if a.Governed() == 0 {
		t.Error("no chunks governed: adapter never activated MP-DASH")
	}
}

func TestAblationDisableGuards(t *testing.T) {
	// With the Ω guard disabled every chunk is governed from chunk 0.
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: w38(), RTT: 50 * time.Millisecond, Primary: true},
			{Name: "lte", Rate: l30(), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := core.NewScheduler(s, conn, 1)
	a, err := NewAdapter(sched, conn, AdapterConfig{
		Policy:                RateBased,
		Category:              ThroughputBased,
		DisableLowBufferGuard: true,
		DisableExtension:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dash.NewPlayer(s, conn, dash.BigBuckBunny(), NewFESTIVE(), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	if a.Skipped() != 0 {
		t.Errorf("skipped = %d with guard disabled", a.Skipped())
	}
	if a.Governed() != 20 {
		t.Errorf("governed = %d, want 20", a.Governed())
	}
}

func TestMPCWithMPDash(t *testing.T) {
	base := session(t, w38(), l30(), NewMPC(), nil, 30)
	cfg := &AdapterConfig{Policy: RateBased, Category: ThroughputBased}
	rep := session(t, w38(), l30(), NewMPC(), cfg, 30)
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d", rep.Stalls)
	}
	if base.CellularBytes("lte") > 0 && rep.CellularBytes("lte") >= base.CellularBytes("lte") {
		t.Errorf("MPC no saving: %d vs %d", rep.CellularBytes("lte"), base.CellularBytes("lte"))
	}
}

func TestFluctuatingWiFiNoStalls(t *testing.T) {
	// Field-style WiFi with fades: MP-DASH must stay stall-free (the
	// paper observed zero stalls across all experiments) by pulling
	// cellular in during fades.
	wifi := trace.Field("coffee", 3.5, 0.5, 100*time.Millisecond, 12000, 33)
	rep := session(t, wifi, l30(), NewFESTIVE(),
		&AdapterConfig{Policy: RateBased, Category: ThroughputBased}, testChunks)
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d on fluctuating WiFi", rep.Stalls)
	}
	if rep.CellularBytes("lte") == 0 {
		t.Error("fades never pulled cellular in; suspicious")
	}
}
