package harness

// Failure-injection tests: the paper claims MP-DASH is robust to WiFi
// blackouts and fades because the scheduler re-enables cellular whenever
// the preferred path falls behind (Algorithm 1 lines 19–21). These tests
// drive the full stack through hostile network conditions.

import (
	"testing"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/trace"
)

// blackoutWiFi is 3.8 Mbps with hard ~zero-rate outages of outageSec
// every periodSec.
func blackoutWiFi(periodSec, outageSec int) *trace.Trace {
	var steps []trace.StepSpec
	for i := 0; i < 20; i++ {
		steps = append(steps,
			trace.StepSpec{Slots: periodSec - outageSec, Mbps: 3.8},
			trace.StepSpec{Slots: outageSec, Mbps: 0.01},
		)
	}
	return trace.Step("blackout", time.Second, steps...)
}

func TestWiFiBlackoutsNoStalls(t *testing.T) {
	// 5-second WiFi outages every 30 s: MP-DASH must ride through them
	// on cellular without a single stall.
	res, err := RunSession(SessionConfig{
		WiFi:      blackoutWiFi(30, 5),
		LTE:       l(3.0),
		Algorithm: FESTIVE,
		Scheme:    MPDashRate,
		Chunks:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Stalls != 0 {
		t.Errorf("stalls = %d during blackouts", res.Report.Stalls)
	}
	if res.LTEBytes() == 0 {
		t.Error("blackouts never engaged cellular")
	}
}

func TestWiFiBlackoutsWiFiOnlySuffers(t *testing.T) {
	// The same outages with WiFi alone must hurt QoE — either stalls or
	// a visibly lower playback bitrate — otherwise the blackout isn't
	// actually biting and the test above proves nothing.
	wo, err := RunSession(SessionConfig{
		WiFi:      blackoutWiFi(30, 8),
		LTE:       l(3.0),
		Algorithm: FESTIVE,
		Scheme:    WiFiOnly,
		Chunks:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunSession(SessionConfig{
		WiFi:      blackoutWiFi(30, 8),
		LTE:       l(3.0),
		Algorithm: FESTIVE,
		Scheme:    MPDashRate,
		Chunks:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := wo.Report.Stalls > mp.Report.Stalls ||
		wo.Report.SteadyStateAvgBitrateMbps < mp.Report.SteadyStateAvgBitrateMbps*0.98
	if !degraded {
		t.Errorf("wifi-only (stalls=%d, rate=%.2f) not worse than mp-dash (stalls=%d, rate=%.2f)",
			wo.Report.Stalls, wo.Report.SteadyStateAvgBitrateMbps,
			mp.Report.Stalls, mp.Report.SteadyStateAvgBitrateMbps)
	}
}

func TestBothPathsAwful(t *testing.T) {
	// 0.4 + 0.3 Mbps: even the lowest rung (0.58 Mbps) is unsustainable.
	// The system must degrade gracefully — bottom rung, stalls happen,
	// but the session completes and accounting stays sane.
	res, err := RunSession(SessionConfig{
		WiFi:      w(0.4),
		LTE:       l(0.3),
		Algorithm: FESTIVE,
		Scheme:    MPDashRate,
		Chunks:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Chunks != 10 {
		t.Fatalf("chunks = %d", res.Report.Chunks)
	}
	if res.Report.SteadyStateAvgBitrateMbps > 0.6 {
		t.Errorf("bitrate %.2f on a 0.7 Mbps network", res.Report.SteadyStateAvgBitrateMbps)
	}
	var total int64
	for _, b := range res.Report.PathBytes {
		total += b
	}
	if total <= 0 {
		t.Error("no bytes accounted")
	}
}

func TestAsymmetricRTTs(t *testing.T) {
	// 10 ms WiFi vs 400 ms satellite-grade LTE: minRTT scheduling plus
	// deadline governance must still work.
	res, err := RunSession(SessionConfig{
		WiFi:      w(3.0),
		LTE:       l(5.0),
		WiFiRTT:   10 * time.Millisecond,
		LTERTT:    400 * time.Millisecond,
		Algorithm: FESTIVE,
		Scheme:    MPDashRate,
		Chunks:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Stalls != 0 {
		t.Errorf("stalls = %d with asymmetric RTTs", res.Report.Stalls)
	}
}

func TestLTEAlsoFlaky(t *testing.T) {
	// Both paths field-flaky: the scheduler's estimates are noisy on
	// both sides; QoE must survive.
	res, err := RunSession(SessionConfig{
		WiFi:      trace.Field("flaky-wifi", 3.5, 0.4, 100*time.Millisecond, 9000, 5),
		LTE:       trace.Field("flaky-lte", 3.5, 0.6, 100*time.Millisecond, 9000, 6),
		Algorithm: FESTIVE,
		Scheme:    MPDashRate,
		Chunks:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Stalls > 1 {
		t.Errorf("stalls = %d with both paths flaky", res.Report.Stalls)
	}
}

func TestRTTJitterNoStalls(t *testing.T) {
	// ±30% per-packet RTT jitter on both paths: RTT-based scheduling and
	// throughput estimation must remain stable enough for stall-free
	// governed playback.
	res, err := RunSession(SessionConfig{
		WiFi:          w(3.8),
		LTE:           l(3.0),
		Scheme:        MPDashRate,
		Chunks:        60,
		RTTJitterFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Stalls != 0 {
		t.Errorf("stalls = %d under RTT jitter", res.Report.Stalls)
	}
	base, err := RunSession(SessionConfig{
		WiFi: w(3.8), LTE: l(3.0), Scheme: Baseline, Chunks: 60, RTTJitterFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.LTEBytes() > 0 && res.LTEBytes() >= base.LTEBytes() {
		t.Errorf("no saving under jitter: %d vs %d", res.LTEBytes(), base.LTEBytes())
	}
}

func TestSixSecondChunks(t *testing.T) {
	// The paper repeats experiments with 6 s and 10 s chunks (§7.3) and
	// reports similar results.
	for _, dur := range []time.Duration{6 * time.Second, 10 * time.Second} {
		video := dashVideoWithDuration(t, dur)
		base, err := RunSession(SessionConfig{
			WiFi: w(3.8), LTE: l(3.0), Video: video, Algorithm: FESTIVE, Scheme: Baseline,
		})
		if err != nil {
			t.Fatal(err)
		}
		mp, err := RunSession(SessionConfig{
			WiFi: w(3.8), LTE: l(3.0), Video: video, Algorithm: FESTIVE, Scheme: MPDashRate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if mp.Report.Stalls != 0 {
			t.Errorf("%v chunks: %d stalls", dur, mp.Report.Stalls)
		}
		if base.LTEBytes() > 0 && mp.LTEBytes() >= base.LTEBytes()/2 {
			t.Errorf("%v chunks: saving below 50%% (%d vs %d)", dur, mp.LTEBytes(), base.LTEBytes())
		}
	}
}

// dashVideoWithDuration re-chunks Big Buck Bunny.
func dashVideoWithDuration(t *testing.T, d time.Duration) *dash.Video {
	t.Helper()
	return dash.BigBuckBunny().WithChunkDuration(d)
}

// ---------------------------------------------------------------------------
// Real-socket chaos: the same robustness claims exercised end-to-end over
// TCP with the netmp path supervisor and fault-injection layer.

// chaosVideo is a small fast asset for real-time socket sessions.
func chaosVideo() *dash.Video {
	return &dash.Video{
		Name:          "chaos",
		ChunkDuration: 300 * time.Millisecond,
		NumChunks:     12,
		SizeSeed:      11,
		Levels: []dash.Level{
			{ID: 1, AvgBitrateMbps: 0.4},
			{ID: 2, AvgBitrateMbps: 0.8},
			{ID: 3, AvgBitrateMbps: 1.6},
		},
	}
}

// realSocketRig wires two fault-capable chunk servers and a supervised
// fetcher with a chaos-friendly retry policy.
func realSocketRig(t *testing.T, video *dash.Video, mbps float64, pplan, splan *netmp.FaultPlan) (*netmp.ChunkServer, *netmp.ChunkServer, *netmp.Fetcher) {
	t.Helper()
	ps, err := netmp.NewChunkServerWithFaults(video, mbps, pplan)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := netmp.NewChunkServerWithFaults(video, mbps, splan)
	if err != nil {
		ps.Close()
		t.Fatal(err)
	}
	f, err := netmp.NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		ps.Close()
		ss.Close()
		t.Fatal(err)
	}
	f.Retry = netmp.RetryPolicy{
		IOTimeout:     300 * time.Millisecond,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    40 * time.Millisecond,
		MaxRedials:    3,
		SegmentBudget: 3,
		RequeueBudget: 6,
		Seed:          1,
	}
	t.Cleanup(func() {
		f.Close()
		ps.Close()
		ss.Close()
	})
	return ps, ss, f
}

func TestRealSocketPreferredPathDeathMidSession(t *testing.T) {
	// Acceptance: kill the preferred path mid-session — connection reset
	// plus a redial blackhole — and the session must still deliver every
	// chunk, byte-verified, on the surviving path, reporting the redials
	// and the degraded interval.
	video := chaosVideo()
	ps, _, f := realSocketRig(t, video, 8, nil, nil)
	time.AfterFunc(60*time.Millisecond, ps.Crash)

	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: true}
	res, err := st.Stream(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", res.Chunks)
	}
	if !res.AllVerified {
		t.Error("byte verification failed")
	}
	if res.LostChunks != 0 {
		t.Errorf("lost chunks = %d", res.LostChunks)
	}
	if res.Redials == 0 {
		t.Error("no redial attempts reported after path death")
	}
	if res.DegradedTime == 0 {
		t.Error("degraded interval not reported")
	}
	if stats := f.PathStats(); stats[0].State != netmp.PathDown {
		t.Errorf("primary state = %v, want down", stats[0].State)
	}
}

func TestRealSocketFaultStorm(t *testing.T) {
	// Scripted and probabilistic faults on both paths at once: resets,
	// stalls, premature closes, corruption. The supervisor must absorb all
	// of it — every chunk plays, every byte verifies.
	video := chaosVideo()
	pplan := &netmp.FaultPlan{
		Seed:        21,
		ResetProb:   0.08,
		CloseProb:   0.08,
		CorruptProb: 0.08,
		Script:      map[int]netmp.FaultKind{3: netmp.FaultStall, 9: netmp.FaultReset},
		StallFor:    time.Second,
	}
	splan := &netmp.FaultPlan{
		Seed:        22,
		ResetProb:   0.05,
		CorruptProb: 0.10,
	}
	ps, ss, f := realSocketRig(t, video, 8, pplan, splan)

	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: true}
	res, err := st.Stream(12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks+res.LostChunks != 12 {
		t.Fatalf("chunks %d + lost %d != 12", res.Chunks, res.LostChunks)
	}
	if !res.AllVerified {
		t.Error("byte verification failed")
	}
	injected := ps.FaultStats().Total() + ss.FaultStats().Total()
	if injected == 0 {
		t.Fatal("fault storm injected nothing; the test proves nothing")
	}
	if res.FaultsSurvived == 0 {
		t.Error("no faults absorbed by the supervisor")
	}
	t.Logf("storm: injected=%d survived=%d retries=%d redials=%d requeued=%d refetches=%d lost=%d",
		injected, res.FaultsSurvived, res.Retries, res.Redials, res.Requeued, res.Refetches, res.LostChunks)
}
