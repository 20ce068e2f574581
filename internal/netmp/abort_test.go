package netmp

// Doomed-chunk abort tests: the pure doom/fit decisions are table-tested
// deterministically; the live tests drive a real capacity collapse
// through the shaped servers and assert the cross-layer contract — an
// abort is a scheduling decision, not a fault (no breaker fuel, no
// requeue budget), the ledger stays exactly-once, and the Streamer
// downgrades instead of rebuffering.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

func TestDoomedPure(t *testing.T) {
	cases := []struct {
		name       string
		rate       float64 // bytes/s per path
		paths      int
		remaining  int64
		windowLeft time.Duration
		factor     float64
		want       bool
	}{
		{"fits comfortably", 1e6, 2, 1e6, time.Second, 1, false},
		{"fits exactly", 1e6, 2, 2e6, time.Second, 1, false},
		{"doomed", 1e5, 2, 2e6, time.Second, 1, true},
		{"single path doomed", 1e6, 1, 2e6, time.Second, 1, true},
		{"second path saves it", 1e6, 2, 1.5e6, time.Second, 1, false},
		{"factor 2 tolerates 2x overrun", 1e6, 1, 1.5e6, time.Second, 2, false},
		{"factor 0.5 aborts early", 1e6, 2, 1.5e6, time.Second, 0.5, true},
		{"no estimate yet", 0, 2, 2e6, time.Second, 1, false},
		{"no live paths", 1e6, 0, 2e6, time.Second, 1, false},
		{"nothing remaining", 1e6, 2, 0, time.Second, 1, false},
		{"window already expired", 1e3, 2, 2e6, 0, 1, false},
		{"window negative", 1e3, 2, 2e6, -time.Second, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, best := doomed(c.rate, c.paths, c.remaining, c.windowLeft, c.factor)
			if got != c.want {
				t.Errorf("doomed(%v,%d,%d,%v,%v) = %v, want %v",
					c.rate, c.paths, c.remaining, c.windowLeft, c.factor, got, c.want)
			}
			if got && best <= 0 {
				t.Errorf("doomed verdict carried best finish %v", best)
			}
		})
	}
	// Determinism: the same inputs give the same verdict every time.
	for i := 0; i < 100; i++ {
		if got, _ := doomed(1e5, 2, 2e6, time.Second, 1); !got {
			t.Fatal("doom verdict flapped across identical evaluations")
		}
	}
}

func TestFitLevelDeterministic(t *testing.T) {
	v := miniVideo() // 300 ms chunks, ladder 0.4 / 0.8 / 1.6 Mbps
	window := 200 * time.Millisecond
	size := func(l int) float64 { return float64(v.ChunkSize(3, l)) }

	// Rate that fits exactly level 1 in the window.
	rate1 := size(1) / window.Seconds()
	if got := fitLevel(v, nil, 3, v.HighestLevel(), rate1, window); got != 1 {
		t.Errorf("fitLevel at level-1 budget = %d, want 1", got)
	}
	// Huge budget: capped by maxLevel, not the ladder top.
	if got := fitLevel(v, nil, 3, 1, 1e9, window); got != 1 {
		t.Errorf("fitLevel respects maxLevel: got %d, want 1", got)
	}
	// Budget below even the lowest rung.
	tiny := size(0) / window.Seconds() * 0.5
	if got := fitLevel(v, nil, 3, v.HighestLevel(), tiny, window); got != -1 {
		t.Errorf("fitLevel with hopeless budget = %d, want -1", got)
	}
	// Degenerate inputs never fit.
	if got := fitLevel(v, nil, 3, 2, 0, window); got != -1 {
		t.Errorf("fitLevel with zero rate = %d, want -1", got)
	}
	if got := fitLevel(v, nil, 3, 2, 1e6, 0); got != -1 {
		t.Errorf("fitLevel with expired window = %d, want -1", got)
	}
	// Deterministic: repeated evaluation of the same frozen inputs.
	want := fitLevel(v, nil, 3, v.HighestLevel(), rate1, window)
	for i := 0; i < 100; i++ {
		if got := fitLevel(v, nil, 3, v.HighestLevel(), rate1, window); got != want {
			t.Fatal("fitLevel flapped across identical evaluations")
		}
	}
	// Authoritative manifest sizes override the generator.
	sizes := make([][]int64, len(v.Levels))
	for l := range sizes {
		sizes[l] = make([]int64, v.NumChunks)
		for c := range sizes[l] {
			sizes[l][c] = 1 << 30 // nothing fits...
		}
	}
	sizes[0][3] = 100 // ...except a tiny level 0 at chunk 3
	if got := fitLevel(v, sizes, 3, v.HighestLevel(), 1e4, window); got != 0 {
		t.Errorf("fitLevel with manifest sizes = %d, want 0", got)
	}
}

// TestAbortOnMidChunkCapacityDrop is the headline chaos test: the shaper
// collapses both paths' capacity mid-chunk, the doom monitor catches the
// decaying estimate before the deadline, and the abort surfaces as the
// typed outcome without spending any fault machinery — no breaker fuel,
// no requeue budget, paths still up — and the follow-up fetch completes
// verified on the restored connections.
func TestAbortOnMidChunkCapacityDrop(t *testing.T) {
	ps, ss, f := faultRig(t, 8, 8, nil)
	f.Abort = AbortPolicy{Enabled: true}

	// Halve-and-halve-again both paths 150 ms into the transfer: 16 Mbps
	// aggregate becomes 2 Mbps against a ~2 MB top-rung chunk.
	drop := time.AfterFunc(150*time.Millisecond, func() {
		ps.SetRateMbps(1)
		ss.SetRateMbps(1)
	})
	defer drop.Stop()

	res, err := f.FetchChunk(0, 4, 2500*time.Millisecond)
	if !errors.Is(err, ErrChunkDoomed) {
		t.Fatalf("err = %v, want ErrChunkDoomed", err)
	}
	if !res.AbortedDoomed {
		t.Error("result not flagged AbortedDoomed")
	}
	if got := res.PrimaryBytes + res.SecondaryBytes; got >= res.Size {
		t.Errorf("aborted chunk delivered %d of %d bytes — nothing was saved", got, res.Size)
	}
	if res.Requeued != 0 {
		t.Errorf("abort spent %d requeue budget", res.Requeued)
	}
	st := f.AbortStats()
	if st.Aborts != 1 {
		t.Errorf("AbortStats.Aborts = %d, want 1", st.Aborts)
	}
	if got := res.PrimaryBytes + res.SecondaryBytes; st.WastedBytes != got {
		t.Errorf("AbortStats.WastedBytes = %d, want the %d partial bytes", st.WastedBytes, got)
	}
	// An abort is not a fault: breakers untouched, both paths alive.
	for _, p := range f.PathStats() {
		if p.State != PathUp {
			t.Errorf("path %s is %v after an abort", p.Name, p.State)
		}
		for _, o := range p.Origins {
			if o.Trips != 0 {
				t.Errorf("path %s origin %s tripped %d times from an abort", p.Name, o.Addr, o.Trips)
			}
		}
	}

	// Capacity returns; the downgraded refetch must complete verified on
	// the restored connections — the ledger and sockets survived the cut.
	ps.SetRateMbps(16)
	ss.SetRateMbps(16)
	res2, err := f.FetchChunk(0, 0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res2)
	if res2.AbortedDoomed {
		t.Error("healthy refetch flagged AbortedDoomed")
	}
}

// TestAbortDisabledRidesOut pins the pre-abort contract: with the policy
// off, a mid-chunk capacity collapse is ridden to completion — the chunk
// arrives late but whole, and no abort is recorded.
func TestAbortDisabledRidesOut(t *testing.T) {
	ps, ss, f := faultRig(t, 8, 8, nil)

	drop := time.AfterFunc(100*time.Millisecond, func() {
		ps.SetRateMbps(1)
		ss.SetRateMbps(1)
	})
	defer drop.Stop()

	res, err := f.FetchChunk(0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.AbortedDoomed {
		t.Error("abort fired with the policy disabled")
	}
	if res.MissedBy == 0 {
		t.Error("collapse so mild the deadline was met — test shapes are off")
	}
	if st := f.AbortStats(); st.Aborts != 0 || st.WastedBytes != 0 {
		t.Errorf("abort counters moved while disabled: %+v", st)
	}
}

// pinnedABR always selects one ladder index, isolating the downgrade
// loop from rate-adaptation behaviour.
type pinnedABR struct{ level int }

func (p pinnedABR) Name() string                     { return "pinned" }
func (p pinnedABR) SelectLevel(dash.PlayerState) int { return p.level }

// TestStreamDowngradeOnDoomedChunks drives the full cross-layer loop: a
// link too slow for the pinned top rendition dooms every steady-state
// chunk, the Streamer downgrades to a rendition that fits, and the
// session still completes with every byte verified. Each abort must pair
// with exactly one downgrade, and the startup chunk (synthetic minimal
// deadline) must never abort.
func TestStreamDowngradeOnDoomedChunks(t *testing.T) {
	_, _, f := streamRig(t, 0.4, 0.4)
	f.Retry = fastRetry()
	f.SegmentSize = 8 * 1024 // fine-grained samples so the estimate is live
	f.Abort = AbortPolicy{Enabled: true}

	// Drain the shapers' token-bucket bursts and warm the predictor to
	// the true (slow) service rate with off-stream fetches, so the
	// streamed chunks face the steady-state link from the first byte.
	for _, c := range []int{10, 11} {
		if _, err := f.FetchChunk(c, 2, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	st := &Streamer{Fetcher: f, ABR: pinnedABR{level: 2}}
	res, err := st.Stream(6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllVerified {
		t.Error("downgraded session not fully verified")
	}
	if res.Chunks != 6 {
		t.Errorf("played %d chunks, want 6", res.Chunks)
	}
	if res.Aborts == 0 {
		t.Error("no chunk doomed on a link 4x too slow for the pinned rendition")
	}
	if res.Downgrades != res.Aborts {
		t.Errorf("downgrades %d != aborts %d — every abort must downgrade exactly once",
			res.Downgrades, res.Aborts)
	}
	if res.AvgLevel >= 2 {
		t.Errorf("avg level %.2f did not move below the pinned rendition", res.AvgLevel)
	}
	if res.LostChunks != 0 {
		t.Errorf("%d chunks lost — downgrade must deliver, not drop", res.LostChunks)
	}
	if st := f.AbortStats(); int(st.Aborts) != res.Aborts {
		t.Errorf("fetcher counted %d aborts, session %d", st.Aborts, res.Aborts)
	}
}

// TestAbortJournalAndTimeline drives an instrumented doomed session and
// checks the decision trail end to end: the journal carries the
// chunk.abort event (with the numbers that drove the verdict) and the
// stream.downgrade that answered it, and the analyze-side timeline
// renders both as readable lines under the owning chunk.
func TestAbortJournalAndTimeline(t *testing.T) {
	_, _, f := streamRig(t, 0.4, 0.4)
	f.Retry = fastRetry()
	f.SegmentSize = 8 * 1024
	f.Abort = AbortPolicy{Enabled: true}
	tel := obs.New()

	st := &Streamer{Fetcher: f, ABR: pinnedABR{level: 2}}
	st.Instrument(tel)
	for _, c := range []int{10, 11} { // drain shaper bursts, warm predictor
		if _, err := f.FetchChunk(c, 2, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Stream(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Fatal("session produced no aborts to journal")
	}

	var abortEv, downEv bool
	for _, e := range tel.Journal.Events() {
		switch e.Type {
		case "chunk.abort":
			abortEv = true
			if e.Chunk < 0 || e.Level <= 0 {
				t.Errorf("chunk.abort missing coordinates: chunk=%d level=%d", e.Chunk, e.Level)
			}
			if e.Num["rate_bps"] <= 0 || e.Num["paths"] <= 0 ||
				e.Num["remaining_bytes"] <= 0 || e.Num["best_finish_s"] <= e.Num["window_s"] {
				t.Errorf("chunk.abort payload does not justify the verdict: %+v", e.Num)
			}
		case "stream.downgrade":
			downEv = true
			if e.Num["to_level"] >= float64(e.Level) {
				t.Errorf("downgrade went up: level %d -> %.0f", e.Level, e.Num["to_level"])
			}
		}
	}
	if !abortEv || !downEv {
		t.Fatalf("journal missing events: chunk.abort=%v stream.downgrade=%v", abortEv, downEv)
	}

	var sb strings.Builder
	obs.RenderTimeline(&sb, tel.Journal.Events())
	out := sb.String()
	for _, want := range []string{"ABORT doomed", "DOWNGRADE level"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}
