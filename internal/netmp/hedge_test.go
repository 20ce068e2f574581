package netmp

// Hedged-request tests: a stalled origin loses the race to a clean
// backup; exactly-once segment accounting holds no matter which side of
// a hedge race wins; the budget stops further hedges once spent.

import (
	"testing"
	"time"

	"mpdash/internal/dash"
)

// hedgeRig starts a faulty preferred origin, a clean backup origin, and
// a clean secondary-path server; the fetcher's primary path ranks
// [faulty, clean].
func hedgeRig(t *testing.T, plan *FaultPlan) (f *Fetcher) {
	t.Helper()
	video := dash.BigBuckBunny()
	slow, err := NewChunkServerWithFaults(video, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err = NewFetcherOrigins(video, BreakerPolicy{Cooldown: 30 * time.Second},
		[]string{slow.Addr(), clean.Addr()},
		[]string{sec.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	f.Retry = fastRetry()
	t.Cleanup(func() {
		f.Close()
		slow.Close()
		clean.Close()
		sec.Close()
	})
	return f
}

func TestHedgeWinsOnStalledOrigin(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race test in -short mode")
	}
	// Every request on the preferred origin stalls for far longer than
	// the I/O timeout; the backup origin is clean. With the pace
	// predictor seeded, every stalled segment must be hedged and won by
	// the backup — and the chunk still assembles exactly once.
	f := hedgeRig(t, &FaultPlan{StallProb: 1, StallFor: 5 * time.Second, Seed: 9})
	f.Hedge = HedgePolicy{BudgetBytes: 1 << 30}
	// Seed the service-rate predictor so hedges arm at the floor delay
	// instead of waiting out half the I/O timeout.
	f.hedge.observe(1<<20, 10*time.Millisecond)

	res, err := f.FetchChunk(0, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.HedgesIssued == 0 {
		t.Fatal("no hedges issued against a stalled origin")
	}
	if res.HedgesWon == 0 {
		t.Error("no hedge won against a 5s stall")
	}
	if res.HedgesCancelled == 0 {
		t.Error("winning hedges cancelled no losers")
	}
	if res.HedgesWon > res.HedgesIssued {
		t.Errorf("won %d > issued %d", res.HedgesWon, res.HedgesIssued)
	}
}

func TestHedgeExactlyOnceUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race test in -short mode")
	}
	// The preferred origin pauses each response for about two timer-wheel
	// ticks past the hedge floor and hedges arm at the floor, so every
	// segment is a genuine two-way race. Whichever side wins, the ledger must see each
	// segment exactly once: byte sums equal the chunk size, every byte
	// verifies, and no chunk double-counts a cancelled loser's partial
	// payload.
	f := hedgeRig(t, &FaultPlan{StallProb: 1, StallFor: hedgeMinDelay + 2*defaultWheelTick, Seed: 9})
	f.Hedge = HedgePolicy{Factor: 0.01, BudgetBytes: 1 << 30}
	f.hedge.observe(1<<20, 10*time.Millisecond)

	for i := 0; i < 4; i++ {
		res, err := f.FetchChunk(i, 2, 5*time.Second)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		checkComplete(t, res)
	}
	hi, hw, hc, _ := f.hedge.snapshot()
	if hi == 0 {
		t.Fatal("race test issued no hedges; it proves nothing")
	}
	if hw > hi || hc > hi {
		t.Errorf("hedge counters inconsistent: issued=%d won=%d cancelled=%d", hi, hw, hc)
	}
}

func TestHedgeDisabledIssuesNone(t *testing.T) {
	f := hedgeRig(t, nil)
	f.Hedge = HedgePolicy{Disabled: true}
	res, err := f.FetchChunk(0, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.HedgesIssued != 0 {
		t.Errorf("hedges issued with hedging disabled: %d", res.HedgesIssued)
	}
}

func TestHedgeBudgetStopsHedging(t *testing.T) {
	f := hedgeRig(t, nil)
	f.Hedge = HedgePolicy{Factor: 0.01, BudgetBytes: 1}
	f.hedge.observe(1<<20, 10*time.Millisecond)
	f.hedge.noteWasted(2) // budget already spent
	res, err := f.FetchChunk(0, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.HedgesIssued != 0 {
		t.Errorf("hedges issued past the byte budget: %d", res.HedgesIssued)
	}
}

func TestHedgeDelayDeadlineClamp(t *testing.T) {
	f := hedgeRig(t, nil)
	pol := HedgePolicy{Factor: 4}.withDefaults()
	retry := fastRetry().withDefaults()
	f.hedge.observe(100<<10, 100*time.Millisecond) // ~1 MB/s

	// Far deadline: the pace factor rules. predicted(100KB) ~ 100ms.
	far := f.hedgeDelay(pol, retry, 100<<10, time.Now().Add(time.Hour))
	if far < 300*time.Millisecond || far > 500*time.Millisecond {
		t.Errorf("far-deadline delay = %v, want ~400ms (Factor x predicted)", far)
	}
	// Near deadline: the hedge must arm early enough for a backup fetch
	// to finish inside the window — well before Factor x predicted.
	near := f.hedgeDelay(pol, retry, 100<<10, time.Now().Add(150*time.Millisecond))
	if near >= far || near > 60*time.Millisecond {
		t.Errorf("near-deadline delay = %v, want clamped below ~50ms", near)
	}
	// The floor still holds with the deadline already blown.
	blown := f.hedgeDelay(pol, retry, 100<<10, time.Now().Add(-time.Second))
	if blown != hedgeMinDelay {
		t.Errorf("blown-deadline delay = %v, want hedgeMinDelay %v", blown, hedgeMinDelay)
	}
}
