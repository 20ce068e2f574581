package dash

import (
	"testing"
	"time"

	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// fixedABR always picks the same ladder index.
type fixedABR struct{ level int }

func (f fixedABR) Name() string                { return "fixed" }
func (f fixedABR) SelectLevel(PlayerState) int { return f.level }

// greedyABR picks the highest level the effective estimate sustains.
type greedyABR struct{}

func (greedyABR) Name() string { return "greedy" }
func (greedyABR) SelectLevel(st PlayerState) int {
	l := st.Video.LevelForThroughput(st.EffectiveEstimateBps())
	if l < 0 {
		return 0
	}
	return l
}

func playerRig(t *testing.T, wifiMbps, lteMbps float64, abr RateAdapter) (*sim.Simulator, *mptcp.Conn, *Player) {
	t.Helper()
	s := sim.New()
	c, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: trace.Constant("w", wifiMbps, time.Second, 1), RTT: 50 * time.Millisecond, Primary: true},
			{Name: "lte", Rate: trace.Constant("l", lteMbps, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlayer(s, c, BigBuckBunny(), abr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, p
}

func TestNewPlayerValidation(t *testing.T) {
	s := sim.New()
	c, _ := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "w", Rate: trace.Constant("w", 5, time.Second, 1), Primary: true},
	}})
	if _, err := NewPlayer(nil, c, BigBuckBunny(), fixedABR{}, nil); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewPlayer(s, nil, BigBuckBunny(), fixedABR{}, nil); err == nil {
		t.Error("nil conn accepted")
	}
	if _, err := NewPlayer(s, c, nil, fixedABR{}, nil); err == nil {
		t.Error("nil video accepted")
	}
	if _, err := NewPlayer(s, c, BigBuckBunny(), nil, nil); err == nil {
		t.Error("nil abr accepted")
	}
}

func TestSmoothPlaybackNoStalls(t *testing.T) {
	// Aggregate 6.8 Mbps easily sustains the top 3.94 Mbps level.
	_, _, p := playerRig(t, 3.8, 3.0, fixedABR{level: 4})
	rep, err := p.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d", rep.Stalls)
	}
	if rep.Chunks != 30 {
		t.Errorf("chunks = %d", rep.Chunks)
	}
	if rep.AvgBitrateMbps < 3.9 || rep.AvgBitrateMbps > 4.0 {
		t.Errorf("avg bitrate = %v", rep.AvgBitrateMbps)
	}
	if rep.QualitySwitches != 0 {
		t.Errorf("switches = %d for fixed level", rep.QualitySwitches)
	}
}

func TestStallsWhenCapacityInsufficient(t *testing.T) {
	// 1.0 Mbps total cannot sustain the 3.94 Mbps top level: stalls are
	// inevitable when the ABR refuses to adapt.
	_, _, p := playerRig(t, 0.7, 0.3, fixedABR{level: 4})
	rep, err := p.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls == 0 {
		t.Error("no stalls at 4x overload")
	}
	if rep.StallTime == 0 {
		t.Error("zero stall time despite stalls")
	}
}

func TestAdaptiveAvoidsStalls(t *testing.T) {
	// Same starved network, but an adaptive algorithm drops to a
	// sustainable rung after the first chunk.
	_, _, p := playerRig(t, 0.7, 0.3, greedyABR{})
	rep, err := p.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls > 1 {
		t.Errorf("adaptive playback stalled %d times", rep.Stalls)
	}
	if rep.SteadyStateAvgBitrateMbps > 1.01 {
		t.Errorf("steady bitrate %v on a 1 Mbps network", rep.SteadyStateAvgBitrateMbps)
	}
}

func TestBufferNeverExceedsCap(t *testing.T) {
	_, _, p := playerRig(t, 20, 10, fixedABR{level: 0})
	rep, err := p.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.BufferAfter > p.BufferCap {
			t.Fatalf("chunk %d buffer %v > cap %v", res.Meta.Index, res.BufferAfter, p.BufferCap)
		}
	}
}

func TestSteadyStateIdleGaps(t *testing.T) {
	// On a fast network with a low fixed level, the player becomes
	// buffer-limited: chunk starts must be spaced ≈ chunkDuration apart
	// (the Fig. 1 idle-gap pattern). Playback duration ≈ video duration.
	s, _, p := playerRig(t, 20, 10, fixedABR{level: 2})
	rep, err := p.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 0 {
		t.Fatalf("stalls = %d", rep.Stalls)
	}
	elapsed := s.Now()
	content := 50 * 4 * time.Second
	// After filling the buffer the player is paced by playback: total
	// wall time within [content - bufferCap, content + slack].
	if elapsed < content-p.BufferCap-10*time.Second {
		t.Errorf("elapsed %v too fast for paced playback of %v", elapsed, content)
	}
	if elapsed > content+20*time.Second {
		t.Errorf("elapsed %v too slow", elapsed)
	}
}

func TestPerChunkAccounting(t *testing.T) {
	_, c, p := playerRig(t, 3.8, 3.0, fixedABR{level: 3})
	rep, err := p.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	var fromChunks int64
	for _, res := range rep.Results {
		var chunkTotal int64
		for _, b := range res.PathBytes {
			chunkTotal += b
		}
		if chunkTotal < res.Meta.Size {
			t.Errorf("chunk %d: path bytes %d < size %d", res.Meta.Index, chunkTotal, res.Meta.Size)
		}
		fromChunks += chunkTotal
	}
	var fromConn int64
	for _, path := range c.Paths() {
		fromConn += path.DeliveredBytes()
	}
	if fromChunks != fromConn {
		t.Errorf("per-chunk sum %d != connection total %d", fromChunks, fromConn)
	}
}

func TestEventLogConsistency(t *testing.T) {
	_, _, p := playerRig(t, 3.8, 3.0, greedyABR{})
	rep, err := p.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	starts, dones, switches := 0, 0, 0
	var lastT time.Duration
	for _, e := range rep.Events() {
		if e.Time < lastT {
			t.Fatalf("event log not time-ordered at %v", e.Time)
		}
		lastT = e.Time
		switch e.Kind {
		case EventChunkStart:
			starts++
		case EventChunkDone:
			dones++
		case EventQualitySwitch:
			switches++
		}
	}
	if starts != 10 || dones != 10 {
		t.Errorf("starts=%d dones=%d", starts, dones)
	}
	if switches != rep.QualitySwitches {
		t.Errorf("event switches %d != report %d", switches, rep.QualitySwitches)
	}
	if p.Results() == nil {
		t.Error("Results returned nil")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventChunkStart, EventChunkDone, EventStall, EventResume, EventQualitySwitch, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestRunWholeVideoDefault(t *testing.T) {
	_, _, p := playerRig(t, 10, 5, fixedABR{level: 0})
	// Level 0 at 0.58 Mbps: 150 chunks download fast; run all of them.
	rep, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != 150 {
		t.Errorf("chunks = %d, want 150", rep.Chunks)
	}
}

func TestTinySessionReport(t *testing.T) {
	// Fewer than 5 chunks: the steady-state window (last 80%) still
	// computes sensibly.
	_, _, p := playerRig(t, 10, 5, fixedABR{level: 1})
	rep, err := p.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != 3 {
		t.Fatalf("chunks = %d", rep.Chunks)
	}
	if rep.SteadyStateAvgBitrateMbps <= 0 {
		t.Errorf("steady bitrate = %v", rep.SteadyStateAvgBitrateMbps)
	}
	if rep.StartupDelay <= 0 {
		t.Errorf("startup delay = %v", rep.StartupDelay)
	}
}

func TestQoEScore(t *testing.T) {
	// Smooth top-rung playback scores near the top bitrate; a stalling,
	// oscillating session scores lower.
	_, _, smooth := playerRig(t, 3.8, 3.0, fixedABR{level: 4})
	repSmooth, err := smooth.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultQoEWeights()
	qSmooth := repSmooth.QoE(w)
	if qSmooth < 3.5 || qSmooth > 4.0 {
		t.Errorf("smooth QoE = %v, want ≈3.94", qSmooth)
	}
	_, _, starved := playerRig(t, 0.7, 0.3, fixedABR{level: 4})
	repStarved, err := starved.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if q := repStarved.QoE(w); q >= qSmooth {
		t.Errorf("starved QoE %v not below smooth %v", q, qSmooth)
	}
	if (&Report{}).QoE(w) != 0 {
		t.Error("empty report QoE should be 0")
	}
}

func TestStartupDelay(t *testing.T) {
	_, _, p := playerRig(t, 3.8, 3.0, fixedABR{level: 2})
	rep, err := p.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	// Level-2 chunk ≈ 735 kB at 6.8 Mbps ≈ 0.9 s plus request RTT.
	if rep.StartupDelay < 500*time.Millisecond || rep.StartupDelay > 3*time.Second {
		t.Errorf("StartupDelay = %v", rep.StartupDelay)
	}
}

func TestReportHelpers(t *testing.T) {
	_, _, p := playerRig(t, 3.8, 3.0, fixedABR{level: 4})
	rep, err := p.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() <= 0 {
		t.Error("TotalBytes <= 0")
	}
	fr := rep.CellularFraction("lte")
	if fr < 0 || fr > 1 {
		t.Errorf("CellularFraction = %v", fr)
	}
	if rep.CellularBytes("lte") != rep.SteadyStatePathBytes["lte"] {
		t.Error("CellularBytes mismatch")
	}
}
