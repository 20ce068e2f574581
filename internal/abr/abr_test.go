package abr

import (
	"testing"
	"time"

	"mpdash/internal/dash"
)

// state builds a PlayerState for unit tests.
func state(video *dash.Video, last int, buffer time.Duration, throughputs []float64, transport float64) dash.PlayerState {
	return dash.PlayerState{
		ChunkIndex:           len(throughputs),
		LastLevel:            last,
		Buffer:               buffer,
		BufferCap:            dash.DefaultBufferCap,
		Video:                video,
		ChunkThroughputs:     throughputs,
		TransportEstimateBps: transport,
	}
}

func TestGPACSelectsHighestBelowEstimate(t *testing.T) {
	v := dash.BigBuckBunny()
	g := NewGPAC()
	if got := g.SelectLevel(state(v, -1, 0, nil, 0)); got != 0 {
		t.Errorf("startup level = %d, want 0", got)
	}
	// Last chunk ran at 3.0 Mbps → level index 3 (2.41 Mbps).
	if got := g.SelectLevel(state(v, 2, 20*time.Second, []float64{3.0e6}, 0)); got != 3 {
		t.Errorf("level = %d, want 3", got)
	}
	// Estimate below the lowest rung still returns 0.
	if got := g.SelectLevel(state(v, 2, 20*time.Second, []float64{0.1e6}, 0)); got != 0 {
		t.Errorf("level = %d, want 0", got)
	}
	// Transport override dominates the player's own estimate (§5.2.1).
	if got := g.SelectLevel(state(v, 2, 20*time.Second, []float64{0.1e6}, 4.5e6)); got != 4 {
		t.Errorf("override level = %d, want 4", got)
	}
	if g.Name() != "GPAC" {
		t.Error("bad name")
	}
}

func TestFESTIVEStartsLow(t *testing.T) {
	v := dash.BigBuckBunny()
	f := NewFESTIVE()
	if got := f.SelectLevel(state(v, -1, 0, nil, 0)); got != 0 {
		t.Errorf("startup = %d", got)
	}
}

func TestFESTIVEGradualUpSwitch(t *testing.T) {
	v := dash.BigBuckBunny()
	f := NewFESTIVE()
	// Plenty of bandwidth: 10 Mbps. From level 0 the climb must be one
	// rung at a time, with longer dwells at higher rungs.
	tps := []float64{10e6, 10e6, 10e6}
	cur := 0
	var path []int
	for i := 0; i < 20; i++ {
		next := f.SelectLevel(state(v, cur, 20*time.Second, tps, 0))
		if next > cur+1 {
			t.Fatalf("jumped %d -> %d", cur, next)
		}
		path = append(path, next)
		cur = next
	}
	if cur != v.HighestLevel() {
		t.Errorf("did not reach top rung: path %v", path)
	}
}

func TestFESTIVEFastDownSwitch(t *testing.T) {
	v := dash.BigBuckBunny()
	f := NewFESTIVE()
	// At level 4 with collapsed bandwidth, the first decision already
	// steps down (one rung per chunk).
	got := f.SelectLevel(state(v, 4, 20*time.Second, []float64{0.6e6}, 0))
	if got != 3 {
		t.Errorf("down-switch = %d, want 3", got)
	}
}

func TestFESTIVEHarmonicMeanRobustToSpike(t *testing.T) {
	v := dash.BigBuckBunny()
	f := NewFESTIVE()
	// 19 samples at 1 Mbps and one 100 Mbps outlier: harmonic mean stays
	// near 1 Mbps, so a level-1 player must not up-switch.
	tps := make([]float64, 19)
	for i := range tps {
		tps[i] = 1e6
	}
	tps = append(tps, 100e6)
	for i := 0; i < 5; i++ {
		if got := f.SelectLevel(state(v, 1, 20*time.Second, tps, 0)); got > 1 {
			t.Fatalf("spike fooled FESTIVE into level %d", got)
		}
	}
}

func TestBBAMapMonotone(t *testing.T) {
	v := dash.BigBuckBunny()
	b := NewBBA()
	prev := -1.0
	for sec := 0; sec <= 40; sec += 2 {
		r := b.mapRate(state(v, 2, time.Duration(sec)*time.Second, nil, 0))
		if r < prev {
			t.Fatalf("map not monotone at %ds: %v < %v", sec, r, prev)
		}
		prev = r
	}
	// Extremes.
	if r := b.mapRate(state(v, 2, 0, nil, 0)); r != v.Levels[0].AvgBitrateMbps*1e6 {
		t.Errorf("empty-buffer rate = %v", r)
	}
	if r := b.mapRate(state(v, 2, 40*time.Second, nil, 0)); r != v.Levels[4].AvgBitrateMbps*1e6 {
		t.Errorf("full-buffer rate = %v", r)
	}
}

func TestBBALevelLowerBufferOrdering(t *testing.T) {
	v := dash.BigBuckBunny()
	b := NewBBA()
	st := state(v, 2, 20*time.Second, nil, 0)
	prev := time.Duration(-1)
	for l := 0; l <= v.HighestLevel(); l++ {
		el := b.LevelLowerBuffer(st, l)
		if el < prev {
			t.Fatalf("e_l not monotone at level %d: %v < %v", l, el, prev)
		}
		if el < 0 || el > st.BufferCap {
			t.Fatalf("e_l out of range: %v", el)
		}
		prev = el
	}
	if b.LevelLowerBuffer(st, 0) != 0 {
		t.Error("lowest level e_l should be 0")
	}
}

func TestBBASteadyHysteresis(t *testing.T) {
	v := dash.BigBuckBunny()
	b := NewBBA()
	b.started = true
	// Mid buffer (22s with cap 40, reservoir 8, upper 36): f(B) = 0.58 +
	// 14/28*(3.94-0.58) = 2.26 Mbps. At level 2 (1.47) the next rung up
	// is 2.41 > 2.26 → hold.
	if got := b.SelectLevel(state(v, 2, 22*time.Second, nil, 0)); got != 2 {
		t.Errorf("hold level = %d, want 2", got)
	}
	// High buffer (36s): f(B)=3.94 ≥ next rung → jump to map level.
	if got := b.SelectLevel(state(v, 2, 36*time.Second, nil, 0)); got != 4 {
		t.Errorf("up level = %d, want 4", got)
	}
	// Low buffer (9s): f(B)≈0.70 < current 1.47 → drop to map level 0.
	if got := b.SelectLevel(state(v, 2, 9*time.Second, nil, 0)); got != 0 {
		t.Errorf("down level = %d, want 0", got)
	}
}

func TestBBACCapsAtMeasuredThroughput(t *testing.T) {
	v := dash.BigBuckBunny()
	c := NewBBAC()
	c.started = true
	// Full buffer wants level 4 (3.94), but the network delivers only
	// 3.4 Mbps → BBA-C locks to level 3 (2.41), preventing Fig. 3
	// oscillation.
	if got := c.SelectLevel(state(v, 3, 38*time.Second, []float64{3.4e6}, 0)); got != 3 {
		t.Errorf("capped level = %d, want 3", got)
	}
	// Plain BBA would pick 4 here.
	b := NewBBA()
	b.started = true
	if got := b.SelectLevel(state(v, 3, 38*time.Second, []float64{3.4e6}, 0)); got != 4 {
		t.Errorf("uncapped level = %d, want 4", got)
	}
	if c.Name() != "BBA-C" || b.Name() != "BBA" {
		t.Error("names wrong")
	}
}

func TestMPCPrefersSustainableRate(t *testing.T) {
	v := dash.BigBuckBunny()
	m := NewMPC()
	// 3 Mbps prediction, thin buffer: within the horizon level 4 chunks
	// (≈5.3 s downloads) would run the 6 s buffer dry, so MPC must pick a
	// sustainable rung; with ample bandwidth it takes the top rung.
	got := m.SelectLevel(state(v, 3, 6*time.Second, []float64{3e6, 3e6, 3e6}, 0))
	if got > 3 {
		t.Errorf("level = %d, want <= 3", got)
	}
	got = m.SelectLevel(state(v, 4, 20*time.Second, []float64{8e6, 8e6, 8e6}, 0))
	if got != 4 {
		t.Errorf("ample-bandwidth level = %d, want 4", got)
	}
	// Tiny buffer, low rate: MPC must not gamble on a high level.
	got = m.SelectLevel(state(v, 3, 2*time.Second, []float64{1e6}, 0))
	if got > 1 {
		t.Errorf("risky level %d on 1 Mbps with 2s buffer", got)
	}
	if m.Name() != "MPC" {
		t.Error("bad name")
	}
}

func TestMPCStartupAndEmptyHistory(t *testing.T) {
	v := dash.BigBuckBunny()
	m := NewMPC()
	if got := m.SelectLevel(state(v, -1, 0, nil, 0)); got != 0 {
		t.Errorf("startup = %d", got)
	}
	if got := m.SelectLevel(state(v, 2, 10*time.Second, nil, 0)); got != 0 {
		t.Errorf("no-history = %d, want 0", got)
	}
}

func TestDeadlinePolicyString(t *testing.T) {
	if DurationBased.String() != "duration" || RateBased.String() != "rate" {
		t.Error("policy strings wrong")
	}
	if DeadlinePolicy(9).String() == "" {
		t.Error("unknown policy empty")
	}
}
