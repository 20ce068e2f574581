package mptcp

import (
	"testing"
	"time"

	"mpdash/internal/sim"
	"mpdash/internal/tcp"
	"mpdash/internal/trace"
)

// twoPath builds the paper's canonical testbed: WiFi (primary, preferred)
// and LTE, both constant-rate.
func twoPath(t *testing.T, wifiMbps, lteMbps float64, kind SchedulerKind) (*sim.Simulator, *Conn) {
	t.Helper()
	s := sim.New()
	c, err := NewConn(s, Config{
		Scheduler: kind,
		Paths: []PathSpec{
			{Name: "wifi", Rate: trace.Constant("w", wifiMbps, time.Second, 1), RTT: 50 * time.Millisecond, Cost: 0, Primary: true},
			{Name: "lte", Rate: trace.Constant("l", lteMbps, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// twoPathCfg builds a 4+4 Mbps two-path conn with extra Config fields.
func twoPathCfg(t *testing.T, cfg Config) (*sim.Simulator, *Conn) {
	t.Helper()
	s := sim.New()
	cfg.Paths = []PathSpec{
		{Name: "wifi", Rate: trace.Constant("w", 4, time.Second, 1), RTT: 50 * time.Millisecond, Primary: true},
		{Name: "lte", Rate: trace.Constant("l", 4, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
	}
	c, err := NewConn(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestNewConnValidation(t *testing.T) {
	s := sim.New()
	w := trace.Constant("w", 1, time.Second, 1)
	cases := []Config{
		{},                                       // no paths
		{Paths: []PathSpec{{Name: "", Rate: w}}}, // empty name
		{Paths: []PathSpec{ // duplicate names
			{Name: "a", Rate: w, Primary: true},
			{Name: "a", Rate: w},
		}},
		{Paths: []PathSpec{{Name: "a", Rate: w}}},                                              // no primary
		{Paths: []PathSpec{{Name: "a", Rate: w, Primary: true}}, Scheduler: SchedulerKind(99)}, // bad scheduler
		{Paths: []PathSpec{ // two primaries
			{Name: "a", Rate: w, Primary: true},
			{Name: "b", Rate: w, Primary: true},
		}},
	}
	for i, cfg := range cases {
		if _, err := NewConn(s, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewConn(nil, Config{Paths: []PathSpec{{Name: "a", Rate: w, Primary: true}}}); err == nil {
		t.Error("nil simulator accepted")
	}
}

func TestPathAccessors(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	if c.Path("wifi") == nil || c.Path("lte") == nil || c.Path("nope") != nil {
		t.Error("Path lookup broken")
	}
	if got := c.PrimaryPath().Name; got != "wifi" {
		t.Errorf("PrimaryPath = %q", got)
	}
	if len(c.Paths()) != 2 {
		t.Errorf("Paths len = %d", len(c.Paths()))
	}
}

func TestTransferCompletesAndAggregates(t *testing.T) {
	// 5 MB over WiFi 3.8 + LTE 3.0 should take ≈ 5e6*8/6.8e6 ≈ 5.9 s
	// (plus ramp-up), cf. paper §7.2.1 "∼6 seconds when using MPTCP".
	s, c := twoPath(t, 3.8, 3.0, MinRTT)
	tr, err := c.StartTransfer(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("transfer did not complete")
	}
	d := tr.Duration().Seconds()
	if d < 5.0 || d > 8.5 {
		t.Errorf("5MB over 6.8 Mbps took %.2fs, want ≈6s", d)
	}
	wifiB := c.Path("wifi").DeliveredBytes()
	lteB := c.Path("lte").DeliveredBytes()
	if wifiB+lteB < 5_000_000 {
		t.Errorf("per-path bytes %d+%d < size", wifiB, lteB)
	}
	// Both paths must have carried a meaningful share.
	if wifiB < 1_000_000 || lteB < 1_000_000 {
		t.Errorf("path split wifi=%d lte=%d; both should carry traffic", wifiB, lteB)
	}
	if s.Now() < tr.CompletedAt() {
		t.Error("clock behind completion time")
	}
}

func TestWiFiOnlyWhenLTEDisabled(t *testing.T) {
	// With LTE disabled the 5MB download uses WiFi alone:
	// ≈ 5e6*8/3.8e6 ≈ 10.5 s (paper §7.2.1).
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	if err := c.SetPathEnabledNow("lte", false); err != nil {
		t.Fatal(err)
	}
	tr, err := c.StartTransfer(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("transfer did not complete")
	}
	if lteB := c.Path("lte").DeliveredBytes(); lteB != 0 {
		t.Errorf("disabled LTE carried %d bytes", lteB)
	}
	d := tr.Duration().Seconds()
	if d < 9.5 || d > 13.5 {
		t.Errorf("WiFi-only 5MB took %.2fs, want ≈10.5s", d)
	}
}

func TestDisablePrimaryRejected(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	if err := c.SetPathEnabled("wifi", false); err == nil {
		t.Error("disabling primary accepted")
	}
	if err := c.SetPathEnabledNow("wifi", false); err == nil {
		t.Error("SetPathEnabledNow on primary accepted")
	}
	if err := c.SetPathEnabled("nope", true); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestSignalDelay(t *testing.T) {
	s, c := twoPath(t, 3.8, 3.0, MinRTT)
	if err := c.SetPathEnabled("lte", false); err != nil {
		t.Fatal(err)
	}
	if !c.Path("lte").Enabled() {
		t.Error("toggle applied before signalling delay")
	}
	s.Advance(DefaultSignalDelay)
	if c.Path("lte").Enabled() {
		t.Error("toggle not applied after signalling delay")
	}
}

func TestReenableMidTransfer(t *testing.T) {
	// Start WiFi-only, re-enable LTE mid-transfer; LTE must start carrying.
	s, c := twoPath(t, 2.0, 3.0, MinRTT)
	if err := c.SetPathEnabledNow("lte", false); err != nil {
		t.Fatal(err)
	}
	tr, err := c.StartTransfer(4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(3 * time.Second)
	lteBefore := c.Path("lte").DeliveredBytes()
	if lteBefore != 0 {
		t.Fatalf("LTE carried %d while disabled", lteBefore)
	}
	if err := c.SetPathEnabled("lte", true); err != nil {
		t.Fatal(err)
	}
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("transfer did not complete")
	}
	if c.Path("lte").DeliveredBytes() == 0 {
		t.Error("re-enabled LTE carried nothing")
	}
}

func TestSequentialTransfers(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	t1, err := c.StartTransfer(500_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartTransfer(500_000); err == nil {
		t.Error("concurrent transfer accepted")
	}
	if !t1.RunUntilComplete(30 * time.Second) {
		t.Fatal("t1 did not complete")
	}
	t2, err := c.StartTransfer(500_000)
	if err != nil {
		t.Fatalf("second transfer rejected after first done: %v", err)
	}
	if !t2.RunUntilComplete(30 * time.Second) {
		t.Fatal("t2 did not complete")
	}
	if t2.Delivered() != 500_000 || !t2.Done() {
		t.Errorf("t2 delivered %d done=%v", t2.Delivered(), t2.Done())
	}
}

func TestStartTransferValidation(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	if _, err := c.StartTransfer(0); err == nil {
		t.Error("zero-size transfer accepted")
	}
	if _, err := c.StartTransfer(-5); err == nil {
		t.Error("negative transfer accepted")
	}
}

func TestProgressMonotone(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	tr, err := c.StartTransfer(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	calls := 0
	tr.OnProgress = func(d int64) {
		calls++
		if d <= last {
			t.Fatalf("progress not monotone: %d after %d", d, last)
		}
		last = d
	}
	completed := false
	tr.OnComplete = func() { completed = true }
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("did not complete")
	}
	if calls == 0 || !completed || last != 2_000_000 {
		t.Errorf("calls=%d completed=%v last=%d", calls, completed, last)
	}
}

func TestThroughputEstimates(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	tr, _ := c.StartTransfer(8_000_000)
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("did not complete")
	}
	wifi := c.Path("wifi").Estimate()
	lte := c.Path("lte").Estimate()
	if wifi < 2.5e6 || wifi > 5.0e6 {
		t.Errorf("wifi estimate = %.2f Mbps, want ≈3.8", wifi/1e6)
	}
	if lte < 1.8e6 || lte > 4.2e6 {
		t.Errorf("lte estimate = %.2f Mbps, want ≈3.0", lte/1e6)
	}
	agg := c.AggregateThroughput()
	if agg < wifi || agg > wifi+lte+1 {
		t.Errorf("aggregate = %v", agg)
	}
}

func TestRoundRobinBalancesEqualPaths(t *testing.T) {
	_, c := twoPath(t, 4.0, 4.0, RoundRobin)
	tr, _ := c.StartTransfer(6_000_000)
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("did not complete")
	}
	a := float64(c.Path("wifi").DeliveredBytes())
	b := float64(c.Path("lte").DeliveredBytes())
	ratio := a / b
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("round-robin split %.0f/%.0f (ratio %.2f), want ≈1", a, b, ratio)
	}
}

func TestMinRTTPrefersFasterRTTPath(t *testing.T) {
	// Equal bandwidth, very different RTT: minRTT should load the
	// low-latency path at least as much.
	s := sim.New()
	c, err := NewConn(s, Config{
		Paths: []PathSpec{
			{Name: "fast", Rate: trace.Constant("f", 4, time.Second, 1), RTT: 20 * time.Millisecond, Primary: true},
			{Name: "slow", Rate: trace.Constant("s", 4, time.Second, 1), RTT: 200 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := c.StartTransfer(4_000_000)
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("did not complete")
	}
	if c.Path("fast").DeliveredBytes() < c.Path("slow").DeliveredBytes() {
		t.Errorf("minRTT put more on the slow path: fast=%d slow=%d",
			c.Path("fast").DeliveredBytes(), c.Path("slow").DeliveredBytes())
	}
}

func TestSchedulerKindString(t *testing.T) {
	if MinRTT.String() == "" || RoundRobin.String() == "" || SchedulerKind(9).String() == "" {
		t.Error("empty String()")
	}
}

func TestSetPathCost(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	if err := c.SetPathCost("lte", 7.5); err != nil {
		t.Fatal(err)
	}
	if c.Path("lte").Cost != 7.5 {
		t.Errorf("cost = %v", c.Path("lte").Cost)
	}
	if err := c.SetPathCost("nope", 1); err == nil {
		t.Error("unknown path accepted")
	}
	if err := c.SetPathCost("lte", -1); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestPathNamesOrder(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	names := c.PathNames()
	if len(names) != 2 || names[0] != "wifi" || names[1] != "lte" {
		t.Errorf("PathNames = %v", names)
	}
}

type nullRecorder struct{ n int }

func (r *nullRecorder) RecordSegment(time.Duration, int, int, DSSOption) { r.n++ }

func TestSetRecorderAndAppThroughput(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	rec := &nullRecorder{}
	c.SetRecorder(rec)
	tr, _ := c.StartTransfer(2_000_000)
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("transfer stuck")
	}
	if rec.n == 0 {
		t.Error("recorder saw nothing")
	}
	if got := c.PathAppThroughput("wifi"); got < 1e6 {
		t.Errorf("wifi app estimate = %v", got)
	}
	if c.PathAppThroughput("nope") != 0 {
		t.Error("unknown path app estimate nonzero")
	}
	// Clearing the recorder stops capture.
	c.SetRecorder(nil)
	n := rec.n
	tr2, _ := c.StartTransfer(500_000)
	if !tr2.RunUntilComplete(60 * time.Second) {
		t.Fatal("second transfer stuck")
	}
	if rec.n != n {
		t.Error("recorder still capturing after clear")
	}
}

func TestMetersRecordTraffic(t *testing.T) {
	_, c := twoPath(t, 3.8, 3.0, MinRTT)
	tr, _ := c.StartTransfer(3_000_000)
	if !tr.RunUntilComplete(60 * time.Second) {
		t.Fatal("did not complete")
	}
	for _, p := range c.Paths() {
		if p.Meter().TotalBytes() != p.DeliveredBytes() {
			t.Errorf("path %s meter %d != delivered %d", p.Name, p.Meter().TotalBytes(), p.DeliveredBytes())
		}
	}
}

// TestTransferAllocationsIndependentOfSize: with no recorder, once a first
// transfer has sized the subflows' free lists and the event queue, a
// transfer costs a handful of allocations (the Transfer, its start
// closure, now and then a doubling of a meter's bucket slice) whether it is 180 segments or 2,900 — nothing is allocated per segment.
func TestTransferAllocationsIndependentOfSize(t *testing.T) {
	s, c := twoPath(t, 4, 4, MinRTT)
	run := func(size int64) {
		tr, err := c.StartTransfer(size)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.RunUntilComplete(s.Now() + time.Minute) {
			t.Fatalf("%d-byte transfer did not complete", size)
		}
	}
	run(8 << 20) // warm-up: slow-start overshoot on both paths
	for _, size := range []int64{256 << 10, 4 << 20} {
		if n := testing.AllocsPerRun(3, func() { run(size) }); n > 4 {
			t.Errorf("%d-byte transfer: %v allocs, want at most 4", size, n)
		}
	}
}

// packetPathConn is the simulator stack's layer rig: two paths on
// constant traces (8 Mbps WiFi, 6 Mbps LTE), every segment crossing sim →
// link → tcp → mptcp and back as an ACK.
func packetPathConn(t *testing.T) (*sim.Simulator, *Conn) {
	t.Helper()
	s := sim.New()
	c, err := NewConn(s, Config{Paths: []PathSpec{
		{Name: "wifi", Rate: trace.Constant("wifi", 8, 100*time.Millisecond, 1), RTT: 50 * time.Millisecond, Cost: 1, Primary: true},
		{Name: "lte", Rate: trace.Constant("lte", 6, 100*time.Millisecond, 1), RTT: 60 * time.Millisecond, Cost: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestPacketPathPinned steps one 16 MiB transfer to completion: what
// arrived, when, in how many events and with how many window cuts are
// exact. The event heap's peak depth is the layer's cost driver — it
// follows the number of links (one entry per in-flight list), not of
// packets in flight — and may only fall.
func TestPacketPathPinned(t *testing.T) {
	const (
		wantFinish            = 9735245374 * time.Nanosecond
		wantLosses, wantSteps = 4, 23304
		maxPending            = 7
	)
	s, c := packetPathConn(t)
	tr, err := c.StartTransfer(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	steps, peak := 0, 0
	for !tr.Done() {
		peak = max(peak, s.Pending())
		if s.Now() > time.Minute || !s.Step() {
			t.Fatalf("transfer stalled at %d of %d bytes", tr.Delivered(), tr.Size())
		}
		steps++
	}
	var delivered, losses int64
	for _, p := range c.Paths() {
		delivered += p.DeliveredBytes()
		losses += p.LossEvents()
	}
	if delivered != 16<<20 || tr.CompletedAt() != wantFinish || losses != wantLosses || steps != wantSteps {
		t.Errorf("delivered %d B at %v after %d loss events in %d steps; want %d B at %v, %d, %d",
			delivered, tr.CompletedAt(), losses, steps, 16<<20, wantFinish, wantLosses, wantSteps)
	}
	if peak > maxPending {
		t.Errorf("event heap peaked at %d pending events, want at most %d", peak, maxPending)
	}
}

// TestPacketPathAllocFree counts delivered segments of a saturated
// transfer that never ends. The five virtual seconds before the count
// take both subflows through slow start's overshoot and first loss
// episode, so their free lists and the event queue have reached their
// size: from there a segment allocates nothing. The transfer starts ten
// virtual hours in because the per-path delivery meters keep one bucket
// per 100 ms since time zero: their first Add then sizes them for the
// next two and a half hours, where growing from empty would leave an
// amortized-append sawtooth (≈ 0.6 B per segment ± 12 %) that no
// tolerance holds.
func TestPacketPathAllocFree(t *testing.T) {
	s, c := packetPathConn(t)
	s.AdvanceTo(10 * time.Hour)
	tr, err := c.StartTransfer(1 << 50)
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(5 * time.Second)
	// One run is 1,000 batches of 256 segments: no allocation at all, so
	// no byte either.
	batch := int64(256 * tcp.DefaultMSS)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			for target := tr.Delivered() + batch; tr.Delivered() < target; {
				s.Step()
			}
		}
	}); n != 0 {
		t.Errorf("256,000 delivered segments allocated %v times, want 0", n)
	}
}

func TestCoupledCCThroughputAtMostDecoupled(t *testing.T) {
	// RFC 6356's goal: the coupled flow is no more aggressive than
	// independent flows. Over two equal paths the coupled aggregate
	// should be at most the decoupled aggregate (and still positive).
	run := func(coupled bool) int64 {
		s, c := twoPathCfg(t, Config{CoupledCC: coupled})
		tr, err := c.StartTransfer(8_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.RunUntilComplete(120_000_000_000) {
			t.Fatal("transfer stuck")
		}
		var sum int64
		for _, p := range c.Paths() {
			sum += p.DeliveredBytes()
		}
		_ = s
		return sum * int64(1e9) / int64(tr.Duration())
	}
	decoupled := run(false)
	coupledBps := run(true)
	if coupledBps <= 0 {
		t.Fatal("coupled made no progress")
	}
	if float64(coupledBps) > float64(decoupled)*1.10 {
		t.Errorf("coupled rate %d exceeds decoupled %d", coupledBps, decoupled)
	}
}
