package dash

import (
	"slices"
	"testing"
	"time"
)

// step scripts one Fetch of the fake transport: how long it takes, how it
// ends, and the level it delivers (-1 keeps the level asked for).
type step struct {
	took    time.Duration
	verdict Verdict
	level   int
}

// fakeTransport is a scripted Transport on a clock that moves only when
// the loop plays or fetches: no sockets, no sleeps. Its Settle charges a
// Late chunk's bytes as waste, as the socket transport does.
type fakeTransport struct {
	now     time.Duration
	steps   []step // cycled
	stopAt  int    // Stopped once this many chunks were fetched; 0 never
	fetched int
	played  time.Duration
	states  []PlayerState
	settled []ChunkResult
	wasted  int64
}

func (t *fakeTransport) Now() time.Duration   { return t.now }
func (t *fakeTransport) Play(d time.Duration) { t.now += d; t.played += d }
func (t *fakeTransport) Estimate() float64    { return 0 }
func (t *fakeTransport) Stopped() bool        { return t.stopAt > 0 && t.fetched >= t.stopAt }

func (t *fakeTransport) Fetch(st PlayerState, meta ChunkMeta) (ChunkResult, error) {
	s := t.steps[t.fetched%len(t.steps)]
	t.fetched++
	if t.states != nil {
		t.states = append(t.states, st)
	}
	t.now += s.took
	if s.level >= 0 && s.level != meta.Level {
		meta = st.Video.Chunk(meta.Index, s.level)
	}
	return ChunkResult{Meta: meta, Verdict: s.verdict}, nil
}

func (t *fakeTransport) Settle(res ChunkResult) {
	if res.Verdict == Late {
		t.wasted += res.Meta.Size
	}
	if t.settled != nil {
		t.settled = append(t.settled, res)
	}
}

// loopVideo has 4 s chunks and three levels.
func loopVideo() *Video {
	return &Video{Name: "loop", ChunkDuration: 4 * time.Second, NumChunks: 150, SizeSeed: 3,
		Levels: []Level{{ID: 1, AvgBitrateMbps: 1}, {ID: 2, AvgBitrateMbps: 2}, {ID: 3, AvgBitrateMbps: 4}}}
}

// runLoop plays len(steps) chunks at level over a fresh fake transport
// whose clock starts at 10 s, with the given buffer cap.
func runLoop(t *testing.T, level int, bufferCap time.Duration, stopAt int, steps ...step) (*fakeTransport, *Report) {
	t.Helper()
	tr := &fakeTransport{now: 10 * time.Second, steps: steps, stopAt: stopAt,
		states: []PlayerState{}, settled: []ChunkResult{}}
	p, err := NewPlayerOver(tr, loopVideo(), fixedABR{level: level})
	if err != nil {
		t.Fatal(err)
	}
	p.BufferCap = bufferCap
	rep, err := p.Run(len(steps))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.settled) != tr.fetched {
		t.Errorf("%d chunks settled of %d fetched", len(tr.settled), tr.fetched)
	}
	return tr, rep
}

func eventKinds(rep *Report) []EventKind {
	var ks []EventKind
	for _, e := range rep.Events() {
		ks = append(ks, e.Kind)
	}
	return ks
}

// TestLoopStall: chunk 0 lands in 1 s (buffer 4 s); chunk 1 takes 6 s, so
// playback runs dry after 4 s and stalls for 2 s (buffer 0 + 4 s); chunk 2
// takes 1 s (buffer 3 + 4 = 7 s).
func TestLoopStall(t *testing.T) {
	_, rep := runLoop(t, 1, DefaultBufferCap, 0,
		step{took: time.Second, level: -1}, step{took: 6 * time.Second, level: -1}, step{took: time.Second, level: -1})
	if rep.Chunks != 3 || rep.Stalls != 1 || rep.StallTime != 2*time.Second {
		t.Errorf("chunks %d, stalls %d, stall time %v; want 3, 1, 2s", rep.Chunks, rep.Stalls, rep.StallTime)
	}
	for i, want := range []time.Duration{4 * time.Second, 4 * time.Second, 7 * time.Second} {
		if got := rep.Results[i].BufferAfter; got != want {
			t.Errorf("chunk %d: buffer after %v, want %v", i, got, want)
		}
	}
	want := []EventKind{EventChunkStart, EventChunkDone, EventChunkStart, EventStall, EventResume, EventChunkDone, EventChunkStart, EventChunkDone}
	if got := eventKinds(rep); !slices.Equal(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
}

// TestLoopLostBeforeStartup: chunk 0 is lost after 2 s, a stall of one
// chunk duration (4 s) that drains nothing, since nothing plays yet.
// Start-up stays pending: chunk 1 is fetched as a start-up chunk
// (LastLevel -1), so its lateness is no miss, and playback begins when it
// lands, 3 s after the session started.
func TestLoopLostBeforeStartup(t *testing.T) {
	tr, rep := runLoop(t, 1, DefaultBufferCap, 0,
		step{took: 2 * time.Second, verdict: Lost, level: -1}, step{took: time.Second, verdict: Late, level: -1})
	if got := tr.states[1].LastLevel; got != -1 {
		t.Errorf("chunk 1 fetched with LastLevel %d, want -1 (start-up pending)", got)
	}
	if rep.Chunks != 1 || rep.Stalls != 1 || rep.StallTime != 4*time.Second {
		t.Errorf("chunks %d, stalls %d, stall time %v; want 1, 1, 4s", rep.Chunks, rep.Stalls, rep.StallTime)
	}
	if rep.StartupDelay != 3*time.Second {
		t.Errorf("start-up delay %v, want 3s", rep.StartupDelay)
	}
	if v := tr.settled[1].Verdict; v != Landed || tr.wasted != 0 {
		t.Errorf("start-up chunk settled %v with %d bytes wasted; want Landed, 0", v, tr.wasted)
	}
	if got := rep.Results[1].BufferAfter; got != 4*time.Second {
		t.Errorf("buffer after start-up %v, want 4s", got)
	}
	want := []EventKind{EventChunkStart, EventStall, EventChunkStart, EventResume, EventChunkDone}
	if got := eventKinds(rep); !slices.Equal(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
}

// TestLoopLateAfterStartup: a late start-up chunk is no miss; a late
// chunk once playing is, and the transport is told so and charges its
// bytes as waste.
func TestLoopLateAfterStartup(t *testing.T) {
	tr, rep := runLoop(t, 2, DefaultBufferCap, 0,
		step{took: time.Second, verdict: Late, level: -1}, step{took: time.Second, verdict: Late, level: -1})
	if tr.settled[0].Verdict != Landed || tr.settled[1].Verdict != Late {
		t.Errorf("verdicts %v, %v; want Landed, Late", tr.settled[0].Verdict, tr.settled[1].Verdict)
	}
	if size := loopVideo().ChunkSize(1, 2); tr.wasted != size {
		t.Errorf("wasted %d bytes, want chunk 1's %d", tr.wasted, size)
	}
	if rep.Chunks != 2 || rep.Stalls != 0 {
		t.Errorf("chunks %d, stalls %d; want 2, 0", rep.Chunks, rep.Stalls)
	}
}

// TestLoopDowngrade: the ABR asks for level 2 throughout, but chunk 1 is
// delivered at level 0. Switches count on the delivered levels, 2 → 0 →
// 2, so two; the next decision sees LastLevel 0, and the throughput is
// the delivered chunk's size over its download.
func TestLoopDowngrade(t *testing.T) {
	tr, rep := runLoop(t, 2, DefaultBufferCap, 0,
		step{took: time.Second, level: -1}, step{took: 2 * time.Second, level: 0}, step{took: time.Second, level: -1})
	if rep.QualitySwitches != 2 {
		t.Errorf("switches %d, want 2", rep.QualitySwitches)
	}
	if got := tr.states[2].LastLevel; got != 0 {
		t.Errorf("chunk 2 decided with LastLevel %d, want the delivered 0", got)
	}
	r := rep.Results[1]
	if r.Meta.Level != 0 || r.Meta.Size != loopVideo().ChunkSize(1, 0) {
		t.Errorf("chunk 1 recorded at level %d, size %d; want the delivered level 0", r.Meta.Level, r.Meta.Size)
	}
	if want := float64(r.Meta.Size*8) / 2; r.ThroughputBps != want {
		t.Errorf("throughput %v, want %v", r.ThroughputBps, want)
	}
	switches := 0
	for _, e := range rep.Events() {
		if e.Kind == EventQualitySwitch {
			switches++
		}
	}
	if switches != 2 {
		t.Errorf("%d switch events, want 2", switches)
	}
}

// TestLoopBufferWait: an 8 s buffer holds two 4 s chunks. Chunk 0 lands in
// 1 s (buffer 4 s); chunk 1 has room and lands in 1 s (3 + 4 = 7 s); chunk
// 2 must wait 3 s for a chunk's room (buffer 4 s), then lands in 1 s
// (7 s); so must chunk 3.
func TestLoopBufferWait(t *testing.T) {
	one := step{took: time.Second, level: -1}
	tr, rep := runLoop(t, 0, 8*time.Second, 0, one, one, one, one)
	if tr.played != 6*time.Second {
		t.Errorf("played %v waiting for room, want 6s", tr.played)
	}
	if got := tr.states[2].Buffer; got != 4*time.Second {
		t.Errorf("chunk 2 decided at buffer %v, want 4s", got)
	}
	if rep.Stalls != 0 || rep.Results[3].BufferAfter != 7*time.Second {
		t.Errorf("stalls %d, final buffer %v; want 0, 7s", rep.Stalls, rep.Results[3].BufferAfter)
	}
}

// TestLoopStopBeforeBufferWait: the same session stopped after two
// chunks. The loop sees Stop before chunk 2's 3 s buffer wait, so it
// neither waits nor fetches again.
func TestLoopStopBeforeBufferWait(t *testing.T) {
	one := step{took: time.Second, level: -1}
	tr, rep := runLoop(t, 0, 8*time.Second, 2, one, one, one, one)
	if tr.played != 0 || tr.fetched != 2 || rep.Chunks != 2 {
		t.Errorf("played %v, fetched %d, chunks %d; want 0s, 2, 2", tr.played, tr.fetched, rep.Chunks)
	}
	if tr.now != 12*time.Second {
		t.Errorf("clock at %v, want 12s", tr.now)
	}
}

// TestLoopStartupDelay: start-up delay runs from the session's start (the
// clock reads 10 s) to the first chunk landing, 1.5 s later.
func TestLoopStartupDelay(t *testing.T) {
	_, rep := runLoop(t, 0, DefaultBufferCap, 0,
		step{took: 1500 * time.Millisecond, level: -1}, step{took: time.Second, level: -1})
	if rep.StartupDelay != 1500*time.Millisecond {
		t.Errorf("start-up delay %v, want 1.5s", rep.StartupDelay)
	}
}

// alternatingABR climbs and falls through the ladder, so every chunk
// switches.
type alternatingABR struct{}

func (alternatingABR) Name() string { return "alternating" }
func (alternatingABR) SelectLevel(st PlayerState) int {
	return (st.ChunkIndex * 2) % len(st.Video.Levels)
}

// TestPlayerLoopAllocs is the loop's allocation budget: a whole session
// over the fake transport — switching every chunk, stalling, downgrading,
// a late and a lost chunk — allocates per session, not per chunk: the
// player, its result and throughput slices, and the report with its two
// maps. Any garbage per chunk costs a full object per chunk and fails.
func TestPlayerLoopAllocs(t *testing.T) {
	const chunks, budget = 150, 0.1 // objects per chunk
	tr := &fakeTransport{steps: []step{
		{took: time.Second, level: -1},
		{took: 9 * time.Second, level: -1},
		{took: 2 * time.Second, verdict: Late, level: 0},
		{took: time.Second, verdict: Lost, level: -1},
		{took: 500 * time.Millisecond, level: -1},
	}}
	video := loopVideo()
	allocs := testing.AllocsPerRun(20, func() {
		tr.now, tr.fetched = 0, 0
		p, err := NewPlayerOver(tr, video, alternatingABR{})
		if err != nil {
			t.Fatal(err)
		}
		p.BufferCap = 12 * time.Second
		if rep, err := p.Run(chunks); err != nil || rep.Stalls == 0 || rep.QualitySwitches == 0 {
			t.Fatalf("session did not stall and switch: %+v, %v", rep, err)
		}
	})
	if per := allocs / chunks; per > budget {
		t.Errorf("%.0f objects per %d-chunk session, %.3f per chunk; budget %.2f", allocs, chunks, per, budget)
	}
	t.Logf("%.0f objects per %d-chunk session", allocs, chunks)
}
