package netmp

// Chaos tests: the fault-injection layer drives the supervised fetcher
// through resets, stalls, premature closes, corruption, blackout windows
// and permanent path death, asserting that sessions complete with
// verified bytes — the paper's robustness claim (§4 Algorithm 1 lines
// 19–21, §7 field study) on real sockets.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// fastRetry is an aggressive policy that keeps chaos tests quick.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		IOTimeout:     300 * time.Millisecond,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    40 * time.Millisecond,
		MaxRedials:    4,
		SegmentBudget: 3,
		RequeueBudget: 6,
		Seed:          42,
	}
}

// faultRig starts a faulty primary and clean secondary plus a fetcher
// with the fast retry policy.
func faultRig(t *testing.T, primaryMbps, secondaryMbps float64, plan *FaultPlan) (*ChunkServer, *ChunkServer, *Fetcher) {
	t.Helper()
	video := dash.BigBuckBunny()
	ps, err := NewChunkServerWithFaults(video, primaryMbps, plan)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewChunkServer(video, secondaryMbps)
	if err != nil {
		ps.Close()
		t.Fatal(err)
	}
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		ps.Close()
		ss.Close()
		t.Fatal(err)
	}
	f.Retry = fastRetry()
	t.Cleanup(func() {
		f.Close()
		ps.Close()
		ss.Close()
	})
	return ps, ss, f
}

func checkComplete(t *testing.T, res *FetchResult) {
	t.Helper()
	if !res.Verified {
		t.Error("payload verification failed")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != size %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
}

func TestRecoversFromConnectionReset(t *testing.T) {
	ps, _, f := faultRig(t, 16, 16, &FaultPlan{Script: map[int]FaultKind{2: FaultReset}})
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Retries == 0 {
		t.Error("reset absorbed without a recorded retry")
	}
	if res.Redials == 0 {
		t.Error("reset recovered without a redial")
	}
	if got := ps.FaultStats().Resets; got != 1 {
		t.Errorf("server injected %d resets, want 1", got)
	}
	if st := f.PathStats()[0]; st.Reconnects == 0 || st.State != PathUp {
		t.Errorf("primary stats after recovery: %+v", st)
	}
}

func TestRecoversFromCorruption(t *testing.T) {
	ps, _, f := faultRig(t, 16, 16, &FaultPlan{Script: map[int]FaultKind{1: FaultCorrupt, 3: FaultCorrupt}})
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Retries < 2 {
		t.Errorf("retries = %d, want >= 2", res.Retries)
	}
	if res.WastedBytes == 0 {
		t.Error("corrupted attempts not accounted as waste")
	}
	if res.Redials != 0 {
		t.Errorf("corruption triggered %d redials; the connection framing was intact", res.Redials)
	}
	if got := ps.FaultStats().Corruptions; got != 2 {
		t.Errorf("server injected %d corruptions, want 2", got)
	}
}

func TestRecoversFromPrematureClose(t *testing.T) {
	_, _, f := faultRig(t, 16, 16, &FaultPlan{Script: map[int]FaultKind{1: FaultClose}})
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Retries == 0 || res.Redials == 0 {
		t.Errorf("premature close survived without retry+redial: %+v", res)
	}
}

func TestRecoversFromMidBodyStall(t *testing.T) {
	_, _, f := faultRig(t, 16, 16, &FaultPlan{
		Script:   map[int]FaultKind{1: FaultStall},
		StallFor: 5 * time.Second,
	})
	start := time.Now()
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Retries == 0 {
		t.Error("stall survived without a retry")
	}
	// The I/O deadline (300 ms) must cut the 5 s stall short.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("fetch waited out the stall: %v", elapsed)
	}
}

func TestBlackoutWindowRideThrough(t *testing.T) {
	// The primary is blacked out for the first 500 ms; deadline pressure
	// pulls the secondary in, and the primary rejoins when the window
	// ends. The paper's WiFi-blackout scenario on real sockets.
	ps, _, f := faultRig(t, 16, 16, &FaultPlan{Blackouts: []Blackout{{From: 0, To: 500 * time.Millisecond}}})
	pol := fastRetry()
	pol.MaxRedials = 200 // blackout, not death: keep redialling
	pol.RequeueBudget = 50
	f.Retry = pol
	res, err := f.FetchChunk(0, 2, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.SecondaryBytes == 0 {
		t.Error("secondary never engaged during the blackout")
	}
	if res.Retries == 0 {
		t.Error("no retries recorded through a 500 ms blackout")
	}
	if ps.FaultStats().BlackoutResets == 0 {
		t.Error("blackout never fired")
	}
}

func TestPreferredPathDeathMidChunk(t *testing.T) {
	// The primary dies for good mid-chunk (reset + redial blackhole).
	// The fetcher must finish the chunk in degraded single-path mode on
	// the secondary, inverting the cost preference.
	ps, _, f := faultRig(t, 2, 16, nil)
	time.AfterFunc(150*time.Millisecond, ps.Crash)
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if !res.Degraded {
		t.Error("result not flagged degraded")
	}
	if res.Redials == 0 {
		t.Error("no redial attempts against the blackholed path")
	}
	if res.SecondaryBytes == 0 {
		t.Error("secondary idle while the primary was dead")
	}
	if st := f.PathStats()[0]; st.State != PathDown {
		t.Errorf("primary state = %v, want down", st.State)
	}
	if f.DegradedFor() == 0 {
		t.Error("degraded interval not tracked")
	}

	// Subsequent chunks run single-path from the start.
	res2, err := f.FetchChunk(1, 0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res2)
	if res2.PrimaryBytes != 0 {
		t.Errorf("dead primary carried %d bytes", res2.PrimaryBytes)
	}
}

func TestSecondaryPathDeathPrimaryFinishes(t *testing.T) {
	// Kill the secondary under deadline pressure: the primary alone must
	// complete the chunk (slower, but verified).
	_, ss, f := faultRig(t, 16, 2, nil)
	time.AfterFunc(100*time.Millisecond, ss.Crash)
	res, err := f.FetchChunk(1, 2, 300*time.Millisecond) // tight: secondary engaged
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if st := f.PathStats()[1]; st.State != PathDown {
		t.Errorf("secondary state = %v, want down", st.State)
	}
}

func TestBothPathsDeadErrors(t *testing.T) {
	ps, ss, f := faultRig(t, 16, 16, nil)
	ps.Crash()
	ss.Crash()
	if _, err := f.FetchChunk(0, 0, time.Second); !errors.Is(err, ErrAllPathsDown) {
		t.Fatalf("err = %v, want ErrAllPathsDown", err)
	}
	// Fast-fail once both paths are known dead.
	start := time.Now()
	if _, err := f.FetchChunk(1, 0, time.Second); !errors.Is(err, ErrAllPathsDown) {
		t.Fatalf("second fetch err = %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("known-dead fetch was not fast")
	}
}

func TestChunkExhaustedWhenEverythingCorrupts(t *testing.T) {
	// Both paths corrupt every response: the requeue budget must bound
	// the fetch and surface ErrChunkExhausted instead of spinning.
	video := dash.BigBuckBunny()
	plan := func() *FaultPlan { return &FaultPlan{CorruptProb: 1, Seed: 7} }
	ps, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pol := fastRetry()
	pol.BaseBackoff = time.Millisecond
	pol.MaxBackoff = 2 * time.Millisecond
	pol.SegmentBudget = 2
	pol.RequeueBudget = 2
	f.Retry = pol
	res, err := f.FetchChunk(0, 0, time.Second)
	if !errors.Is(err, ErrChunkExhausted) {
		t.Fatalf("err = %v, want ErrChunkExhausted", err)
	}
	if res == nil || res.Retries == 0 {
		t.Errorf("partial result missing fault accounting: %+v", res)
	}
	// Both paths survive — corruption is not a connection failure.
	for _, st := range f.PathStats() {
		if st.State == PathDown {
			t.Errorf("path %s down after corruption-only faults", st.Name)
		}
	}
}

// fixedABR always selects the same level.
type fixedABR int

func (l fixedABR) Name() string                                   { return "fixed" }
func (l fixedABR) SelectLevel(dash.PlayerState) int               { return int(l) }
func (l fixedABR) OnChunkDone(dash.PlayerState, dash.ChunkResult) {}

func TestStreamLifelineRefetchAtLowestLevel(t *testing.T) {
	// Every request for the top level corrupts on both paths; the lowest
	// level is clean. Each chunk must exhaust its budget at level 2,
	// refetch once at level 0, and play — no lost chunks, no session
	// error.
	video := miniVideo()
	plan := func() *FaultPlan { return &FaultPlan{CorruptProb: 1, Levels: []int{2}, Seed: 3} }
	ps, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pol := fastRetry()
	pol.BaseBackoff = time.Millisecond
	pol.MaxBackoff = 2 * time.Millisecond
	pol.SegmentBudget = 2
	pol.RequeueBudget = 2
	f.Retry = pol

	st := &Streamer{Fetcher: f, ABR: fixedABR(2), RateBased: true}
	res, err := st.Stream(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 3 {
		t.Fatalf("chunks = %d", res.Chunks)
	}
	if res.Refetches != 3 {
		t.Errorf("refetches = %d, want 3", res.Refetches)
	}
	if res.LostChunks != 0 {
		t.Errorf("lost chunks = %d", res.LostChunks)
	}
	if !res.AllVerified {
		t.Error("verification failed")
	}
	if res.AvgLevel != 0 {
		t.Errorf("avg level = %.2f, want 0 (lifeline)", res.AvgLevel)
	}
	if res.FaultsSurvived == 0 {
		t.Error("no faults accounted")
	}
}

func TestStreamLostChunkWhenLowestAlsoFails(t *testing.T) {
	// Both paths corrupt everything: even the lifeline fails, the chunk
	// counts as a stall, and the session still runs to the end without an
	// error.
	video := miniVideo()
	plan := func() *FaultPlan { return &FaultPlan{CorruptProb: 1, Seed: 5} }
	ps, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServerWithFaults(video, 0, plan())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pol := fastRetry()
	pol.BaseBackoff = time.Millisecond
	pol.MaxBackoff = 2 * time.Millisecond
	pol.SegmentBudget = 2
	pol.RequeueBudget = 2
	f.Retry = pol

	st := &Streamer{Fetcher: f, ABR: fixedABR(2), RateBased: true}
	res, err := st.Stream(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostChunks != 2 {
		t.Errorf("lost chunks = %d, want 2", res.LostChunks)
	}
	if res.Stalls != 2 {
		t.Errorf("stalls = %d, want 2", res.Stalls)
	}
	if res.Chunks != 0 {
		t.Errorf("played chunks = %d, want 0", res.Chunks)
	}
	if res.WastedBytes == 0 {
		t.Error("no waste accounted for discarded partial chunks")
	}
}

func TestStreamSurvivesPreferredPathDeath(t *testing.T) {
	// Kill the preferred path mid-session: the stream must ride through
	// on the secondary and report the degradation.
	video := miniVideo()
	ps, err := NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Retry = fastRetry()
	time.AfterFunc(60*time.Millisecond, ps.Crash)

	st := &Streamer{Fetcher: f, ABR: fixedABR(1), RateBased: true}
	res, err := st.Stream(8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 8 {
		t.Fatalf("chunks = %d", res.Chunks)
	}
	if !res.AllVerified {
		t.Error("verification failed")
	}
	if res.LostChunks != 0 {
		t.Errorf("lost chunks = %d", res.LostChunks)
	}
	if res.Redials == 0 {
		t.Error("no redials reported after path death")
	}
	if res.DegradedTime == 0 {
		t.Error("degraded time not reported")
	}
}

func TestMultiFetchSurvivesPrimaryDeath(t *testing.T) {
	// Three paths; the primary dies mid-fetch. The cheapest surviving
	// secondary is forced on and the chunk completes.
	video := dash.BigBuckBunny()
	var servers []*ChunkServer
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := NewChunkServer(video, 8)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	m, err := NewFetcher(video, addrs[0], addrs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	m.Retry = fastRetry()
	time.AfterFunc(80*time.Millisecond, servers[0].Crash)
	res, err := m.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verification failed")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
	if !res.Degraded {
		t.Error("not flagged degraded")
	}
	if st := m.PathStats(); st[0].State != PathDown {
		t.Errorf("primary state = %v", st[0].State)
	}
}

func TestMultiFetchSurvivesExtraSecondaryDeath(t *testing.T) {
	// Three paths under a tight deadline so every secondary engages; the
	// costliest extra (secondary-2) is blackholed mid-fetch. Its claimed
	// segments must requeue to the survivors exactly like the embedded
	// paths' do, and the chunk completes verified.
	if testing.Short() {
		t.Skip("multipath chaos test in -short mode")
	}
	video := dash.BigBuckBunny()
	var servers []*ChunkServer
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := NewChunkServer(video, 4)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	m, err := NewFetcher(video, addrs[0], addrs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	m.Retry = fastRetry()
	time.AfterFunc(60*time.Millisecond, servers[2].Crash)
	res, err := m.FetchChunk(0, 2, 200*time.Millisecond) // tight: all paths engage
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verification failed")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
	st := m.PathStats()
	if st[2].Name != "secondary-2" {
		t.Fatalf("extra path named %q, want secondary-2", st[2].Name)
	}
	if st[2].State != PathDown {
		t.Errorf("secondary-2 state = %v, want down after blackhole", st[2].State)
	}
	for _, p := range st[:2] {
		if p.State == PathDown {
			t.Errorf("surviving path %s marked down", p.Name)
		}
	}

	// The next chunk must run on the two survivors from the start.
	before := st[2].Bytes
	res2, err := m.FetchChunk(1, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Verified || res2.PrimaryBytes+res2.SecondaryBytes != res2.Size {
		t.Errorf("post-death chunk incomplete: %+v", res2)
	}
	if got := m.PathStats()[2].Bytes - before; got != 0 {
		t.Errorf("dead secondary-2 carried %d bytes", got)
	}
}

func TestCloseJoinsBothErrors(t *testing.T) {
	_, _, f := rig(t, 0, 0)
	if err := f.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	err := f.Close()
	if err == nil {
		t.Fatal("double close reported no error")
	}
	if n := strings.Count(err.Error(), "use of closed network connection"); n != 2 {
		t.Errorf("joined error reports %d close failures, want 2: %v", n, err)
	}
}

func TestParseBlackouts(t *testing.T) {
	got, err := ParseBlackouts("8s:3s, 40s:5s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Blackout{{From: 8 * time.Second, To: 11 * time.Second}, {From: 40 * time.Second, To: 45 * time.Second}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %+v", got)
	}
	if ws, err := ParseBlackouts("  "); err != nil || ws != nil {
		t.Errorf("blank input: %v %v", ws, err)
	}
	for _, bad := range []string{"8s", "x:3s", "8s:x", "-1s:3s", "8s:0s"} {
		if _, err := ParseBlackouts(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
