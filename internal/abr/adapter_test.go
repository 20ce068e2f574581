package abr

// White-box tests of the adapter's §5.2.1 / §5.2.2 threshold formulas,
// which the integration tests only exercise indirectly.

import (
	"math"
	"testing"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// adapterRig builds an adapter over a live two-path conn with warmed
// estimators so TransportEstimate is meaningful.
func adapterRig(t *testing.T, cfg AdapterConfig, wifiMbps, lteMbps float64) (*Adapter, *mptcp.Conn) {
	t.Helper()
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: trace.Constant("w", wifiMbps, time.Second, 1), RTT: 50 * time.Millisecond, Cost: 0.1, Primary: true},
			{Name: "lte", Rate: trace.Constant("l", lteMbps, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(s, conn, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdapter(sched, conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := conn.StartTransfer(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.RunUntilComplete(10 * time.Minute) { // slow-link rigs need time
		t.Fatal("warmup stuck")
	}
	return a, conn
}

func basicState(v *dash.Video, buffer time.Duration, last int) dash.PlayerState {
	return dash.PlayerState{
		Buffer:    buffer,
		BufferCap: dash.DefaultBufferCap,
		Video:     v,
		LastLevel: last,
	}
}

func TestThroughputPhiIs80PercentOfCap(t *testing.T) {
	a, _ := adapterRig(t, AdapterConfig{Category: ThroughputBased}, 3.8, 3.0)
	st := basicState(dash.BigBuckBunny(), 20*time.Second, 3)
	want := time.Duration(0.8 * float64(st.BufferCap))
	if got := a.phi(st); got != want {
		t.Errorf("phi = %v, want %v", got, want)
	}
}

func TestBufferPhiIsCapMinusChunk(t *testing.T) {
	bba := NewBBA()
	a, _ := adapterRig(t, AdapterConfig{Category: BufferBased, BBA: bba}, 3.8, 3.0)
	v := dash.BigBuckBunny()
	st := basicState(v, 20*time.Second, 3)
	want := st.BufferCap - v.ChunkDuration
	if got := a.phi(st); got != want {
		t.Errorf("phi = %v, want %v", got, want)
	}
}

func TestThroughputOmegaFormula(t *testing.T) {
	// §5.2.1: Ω = max(T − T', 0.4·cap) with T = 2·cap and
	// T' = T·throughput/lowestBitrate. With an aggregate ≈6.8 Mbps and
	// lowest rung 0.58 Mbps, T' >> T, so the floor 0.4·cap binds.
	a, _ := adapterRig(t, AdapterConfig{Category: ThroughputBased}, 3.8, 3.0)
	st := basicState(dash.BigBuckBunny(), 20*time.Second, 3)
	want := time.Duration(0.4 * float64(st.BufferCap))
	if got := a.omega(st); got != want {
		t.Errorf("omega = %v, want floor %v", got, want)
	}
}

func TestThroughputOmegaRisesWhenStarved(t *testing.T) {
	// With aggregate throughput below half the lowest bitrate, T' < T/2
	// and Ω = T − T' exceeds the 0.4·cap floor.
	a, _ := adapterRig(t, AdapterConfig{Category: ThroughputBased}, 0.15, 0.1)
	st := basicState(dash.BigBuckBunny(), 20*time.Second, 0)
	floor := time.Duration(0.4 * float64(st.BufferCap))
	if got := a.omega(st); got <= floor {
		t.Errorf("omega = %v, should exceed the %v floor when starved", got, floor)
	}
}

func TestBufferOmegaUsesELPlusChunk(t *testing.T) {
	// §5.2.2: once the player sits at the highest sustainable level,
	// Ω = e_l(level) + one chunk duration.
	bba := NewBBA()
	a, _ := adapterRig(t, AdapterConfig{Category: BufferBased, BBA: bba}, 3.8, 3.0)
	v := dash.BigBuckBunny()
	// Aggregate ≈6.8 Mbps sustains level 4; the player is there.
	st := basicState(v, 30*time.Second, 4)
	el := bba.LevelLowerBuffer(st, 4)
	want := el + v.ChunkDuration
	if got := a.omega(st); math.Abs(float64(got-want)) > float64(time.Millisecond) {
		t.Errorf("omega = %v, want e_l+chunk = %v", got, want)
	}
}

func TestBufferOmegaDefersWhileClimbing(t *testing.T) {
	// Below the sustainable level the adapter must not govern: Ω equals
	// the full capacity (never satisfied).
	bba := NewBBA()
	a, _ := adapterRig(t, AdapterConfig{Category: BufferBased, BBA: bba}, 3.8, 3.0)
	st := basicState(dash.BigBuckBunny(), 30*time.Second, 1) // far below sustainable
	if got := a.omega(st); got != st.BufferCap {
		t.Errorf("omega = %v while climbing, want cap %v", got, st.BufferCap)
	}
	// And at startup (no level yet).
	st.LastLevel = -1
	if got := a.omega(st); got != st.BufferCap {
		t.Errorf("startup omega = %v, want cap", got)
	}
}

func TestOnChunkStartRejectsBadChunk(t *testing.T) {
	a, conn := adapterRig(t, AdapterConfig{DisableLowBufferGuard: true}, 3.8, 3.0)
	st := basicState(dash.BigBuckBunny(), 30*time.Second, 3)
	tr, err := conn.StartTransfer(100)
	if err != nil {
		t.Fatal(err)
	}
	// Size 0 fails scheduler validation: the adapter must fail safe.
	a.OnChunkStart(st, dash.ChunkMeta{Size: 0, Duration: 4 * time.Second}, tr)
	if a.Governed() != 0 || a.Skipped() != 1 {
		t.Errorf("governed=%d skipped=%d after bad chunk", a.Governed(), a.Skipped())
	}
}
