package core

import (
	"testing"
	"time"

	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

func TestEngageTable(t *testing.T) {
	cases := []struct {
		name   string
		need   float64
		window float64
		est    []float64
		want   int
	}{
		{"preferred path covers", 100, 10, []float64{10, 5, 5}, 0},
		{"exactly covered counts as covered", 100, 10, []float64{10, 5}, 0},
		{"one secondary closes the gap", 140, 10, []float64{10, 5, 5}, 1},
		{"both secondaries needed", 160, 10, []float64{10, 5, 5}, 2},
		{"uncoverable: everything on, no more", 1000, 10, []float64{10, 5, 5}, 2},
		{"window gone: all on", 1, 0, []float64{10, 5, 5}, 2},
		{"window negative: all on", 1, -3, []float64{1e9, 5}, 1},
		{"never-measured secondary counts as sufficient", 1000, 10, []float64{10, 0, 5}, 1},
		{"never-measured second secondary stops the cascade", 1000, 10, []float64{10, 5, 0, 5}, 2},
		{"nothing measured at all: probe one path", 1, 10, []float64{0, 0, 0}, 1},
		{"single path: nothing to engage", 1000, 10, []float64{10}, 0},
		{"single path, window gone", 1000, 0, []float64{10}, 0},
	}
	for _, c := range cases {
		if got := Engage(c.need, c.window, c.est); got != c.want {
			t.Errorf("%s: Engage(%v, %v, %v) = %d, want %d", c.name, c.need, c.window, c.est, got, c.want)
		}
	}
}

func TestChunkDeadline(t *testing.T) {
	const size, nominal = 2_000_000, 4e6 // 16 Mbit at 4 Mbps = 4 s
	dur := 3 * time.Second
	cases := []struct {
		name           string
		rateBased      bool
		nominalBps     float64
		buffer, phi    time.Duration
		wantD, wantExt time.Duration
	}{
		{"duration-based", false, nominal, 10 * time.Second, 24 * time.Second, dur, 0},
		{"rate-based = size*8/nominal", true, nominal, 10 * time.Second, 24 * time.Second, 4 * time.Second, 0},
		{"rate-based, unknown bitrate falls back", true, 0, 10 * time.Second, 24 * time.Second, dur, 0},
		{"buffer above phi extends", false, nominal, 27 * time.Second, 24 * time.Second, dur + 3*time.Second, 3 * time.Second},
		{"buffer at phi does not", true, nominal, 24 * time.Second, 24 * time.Second, 4 * time.Second, 0},
	}
	for _, c := range cases {
		d, ext := ChunkDeadline(c.rateBased, size, c.nominalBps, dur, c.buffer, c.phi)
		if d != c.wantD || ext != c.wantExt {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, d, ext, c.wantD, c.wantExt)
		}
	}
}

// threePathRig is a scheduler over a warmed wifi + two-LTE connection.
func threePathRig(t *testing.T) *Scheduler {
	t.Helper()
	s := sim.New()
	c, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("w", 2.0, time.Second, 1), RTT: 50 * time.Millisecond, Cost: 0.1, Primary: true},
		{Name: "lte-a", Rate: trace.Constant("a", 3.0, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1.0},
		{Name: "lte-b", Rate: trace.Constant("b", 3.0, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 5.0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(s, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm(t, c)
	return sch
}

// The driver, not the kernel, enforces the cost ceiling: an over-MaxCost
// path never reaches Engage, so the next path in cost order takes its
// place in the covering prefix.
func TestEvaluateFiltersOverCeilingPaths(t *testing.T) {
	sch := threePathRig(t)
	sch.MaxCost = 2 // lte-a (1.0) allowed, lte-b (5.0) off the table
	// 5 MB in 4 s: wifi + lte-a cannot cover it, so without the ceiling
	// the prefix would reach lte-b.
	if err := sch.Enable(5_000_000, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if !sch.asking("lte-a") || sch.asking("lte-b") {
		t.Errorf("ceiling 2: lte-a on %v, lte-b on %v; want on, off", sch.asking("lte-a"), sch.asking("lte-b"))
	}
	sch.Disable()
	sch.MaxCost = 0.5 // both secondaries over the ceiling
	if err := sch.Enable(5_000_000, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if sch.asking("lte-a") || sch.asking("lte-b") {
		t.Errorf("ceiling 0.5: lte-a on %v, lte-b on %v; want both off", sch.asking("lte-a"), sch.asking("lte-b"))
	}
}

// asking reports whether the named path was last asked to be on.
func (s *Scheduler) asking(name string) bool {
	for i, p := range s.asked {
		if p.Name == name {
			return s.askedOn[i]
		}
	}
	return false
}

func TestKernelAndTickAllocFree(t *testing.T) {
	est := []float64{2e6, 3e6, 3e6}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		sink += Engage(4e7, 4, est)
		d, _ := ChunkDeadline(true, 2_000_000, 4e6, 4*time.Second, 30*time.Second, 24*time.Second)
		sink += int(d)
	}); n != 0 {
		t.Errorf("kernel allocated %v per run, want 0", n)
	}
	sch := threePathRig(t)
	if err := sch.Enable(5_000_000, time.Hour); err != nil {
		t.Fatal(err)
	}
	sch.Tick() // first pass sizes the scratch buffers
	if n := testing.AllocsPerRun(100, sch.Tick); n != 0 {
		t.Errorf("Scheduler.Tick allocated %v per run, want 0", n)
	}
	if !sch.Active() {
		t.Fatal("scheduler deactivated mid-test; Tick measured the no-op path")
	}
}

// TestTickTogglesPinned: 500 Ticks over three paths (WiFi 30, ethernet 20
// and LTE 25 Mbps; α 0.9) governing 40 MB in 20 s. The simulator clock
// never moves, so every Tick takes the full Algorithm 1 path (sort +
// prefix-cover walk) and the deadline never passes.
func TestTickTogglesPinned(t *testing.T) {
	const wantToggles, wantMisses = 2, 0
	s := sim.New()
	c, err := mptcp.NewConn(s, mptcp.Config{Paths: []mptcp.PathSpec{
		{Name: "wifi", Rate: trace.Constant("wifi", 30, 100*time.Millisecond, 1), RTT: 50 * time.Millisecond, Cost: 1, Primary: true},
		{Name: "eth", Rate: trace.Constant("eth", 20, 100*time.Millisecond, 1), RTT: 40 * time.Millisecond, Cost: 3},
		{Name: "lte", Rate: trace.Constant("lte", 25, 100*time.Millisecond, 1), RTT: 60 * time.Millisecond, Cost: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(s, c, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Enable(40_000_000, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sch.Tick()
	}
	if sch.Toggles() != wantToggles || sch.DeadlineMisses() != wantMisses {
		t.Errorf("500 ticks: %d toggles, %d deadline misses; want %d and %d",
			sch.Toggles(), sch.DeadlineMisses(), wantToggles, wantMisses)
	}
}
