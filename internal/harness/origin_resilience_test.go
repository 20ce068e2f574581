package harness

// Origin-tier acceptance: a full real-socket session against a ranked
// origin set whose preferred origin stalls and then dies mid-stream,
// with the first backup flaky (10% resets). The session must lose zero
// chunks, record at least one origin failover, and win at least one
// hedged request — the robustness claims of the origin-resilience layer
// exercised end-to-end.

import (
	"net"
	"testing"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/netmp"
)

func TestRealSocketOriginFailoverAndHedging(t *testing.T) {
	if testing.Short() {
		t.Skip("origin chaos acceptance test in -short mode")
	}
	video := chaosVideo()

	// Primary-path origins, in preference order:
	//   A — stalls half its responses (hedge bait), blackholed mid-stream;
	//   B — 10% connection resets;
	//   C — clean.
	originA, err := netmp.NewChunkServerWithFaults(video, 8, &netmp.FaultPlan{
		Seed: 31, StallProb: 0.5, StallFor: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer originA.Close()
	originB, err := netmp.NewChunkServerWithFaults(video, 8, &netmp.FaultPlan{
		Seed: 32, ResetProb: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer originB.Close()
	originC, err := netmp.NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer originC.Close()
	secondary, err := netmp.NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()

	f, err := netmp.NewFetcherOrigins(video,
		netmp.BreakerPolicy{Window: 6, MinSamples: 2, TripErrorRate: 0.5, Cooldown: 2 * time.Second},
		[]string{originA.Addr(), originB.Addr(), originC.Addr()},
		[]string{secondary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Retry = netmp.RetryPolicy{
		IOTimeout:     300 * time.Millisecond,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    40 * time.Millisecond,
		MaxRedials:    6,
		SegmentBudget: 3,
		RequeueBudget: 20,
		Seed:          1,
	}
	f.Hedge = netmp.HedgePolicy{BudgetBytes: 64 << 20}

	// The preferred origin dies for good mid-stream; the path must fail
	// over to B/C instead of going down.
	time.AfterFunc(500*time.Millisecond, originA.Blackhole)

	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: true}
	res, err := st.Stream(12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 12 {
		t.Fatalf("chunks = %d, want 12", res.Chunks)
	}
	if res.LostChunks != 0 {
		t.Errorf("lost chunks = %d, want 0", res.LostChunks)
	}
	if !res.AllVerified {
		t.Error("byte verification failed")
	}
	if res.Failovers == 0 {
		t.Error("no origin failover recorded across a blackholed origin")
	}
	if res.HedgesWon == 0 {
		t.Errorf("no hedge won against 2s stalls (issued %d)", res.HedgesIssued)
	}
	if res.HedgesCancelled < res.HedgesWon {
		t.Errorf("hedge wins (%d) without cancelled losers (%d)", res.HedgesWon, res.HedgesCancelled)
	}

	stats := f.PathStats()[0]
	if stats.State == netmp.PathDown {
		t.Error("primary path down despite two live backup origins")
	}
	if stats.Origin == originA.Addr() {
		t.Error("primary path still pinned to the blackholed origin")
	}
	if len(stats.Origins) != 3 {
		t.Fatalf("origin snapshots = %d, want 3", len(stats.Origins))
	}
	var tripped bool
	for _, o := range stats.Origins {
		if o.Trips > 0 {
			tripped = true
		}
	}
	if !tripped {
		t.Error("no breaker trip recorded anywhere in the origin set")
	}
	t.Logf("origin chaos: failovers=%d hedges issued=%d won=%d cancelled=%d wasted=%dB retries=%d requeued=%d",
		res.Failovers, res.HedgesIssued, res.HedgesWon, res.HedgesCancelled,
		res.HedgeWastedBytes, res.Retries, res.Requeued)
}

func TestRealSocketServerOverloadPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("overload acceptance test in -short mode")
	}
	// A one-slot origin under squatters: the server must reject the
	// excess with 503s while the admitted session streams unimpeded, and
	// the client must ride out any rejections it absorbs along the way.
	video := chaosVideo()
	ps, err := netmp.NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := netmp.NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ps.SetLimits(netmp.ServerLimits{MaxConns: 2})

	f, err := netmp.NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Retry = netmp.RetryPolicy{
		IOTimeout:     300 * time.Millisecond,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    40 * time.Millisecond,
		MaxRedials:    50,
		SegmentBudget: 3,
		RequeueBudget: 30,
		Seed:          1,
	}

	// One squatter holds the last slot for the whole run; probes keep
	// knocking and must each be turned away with a 503.
	squat, err := net.DialTimeout("tcp", ps.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer squat.Close()
	time.Sleep(20 * time.Millisecond) // let the squatter be admitted
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		buf := make([]byte, 256)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c, err := net.DialTimeout("tcp", ps.Addr(), time.Second); err == nil {
				c.SetReadDeadline(time.Now().Add(time.Second))
				c.Read(buf) // the 503 turn-away
				c.Close()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: true}
	res, err := st.Stream(8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 8 || res.LostChunks != 0 {
		t.Fatalf("chunks=%d lost=%d under overload pressure", res.Chunks, res.LostChunks)
	}
	if !res.AllVerified {
		t.Error("byte verification failed")
	}
	ov := ps.OverloadStats()
	if ov.RejectedConns == 0 {
		t.Error("no 503 rejections issued; the pressure never bit")
	}
	for _, p := range f.PathStats() {
		if p.State == netmp.PathDown {
			t.Errorf("path %s down under 503 pressure", p.Name)
		}
	}
	t.Logf("overload: rejected=%d retries=%d redials=%d", ov.RejectedConns, res.Retries, res.Redials)
}
