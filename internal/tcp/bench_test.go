package tcp

import (
	"runtime"
	"testing"
	"time"

	"mpdash/internal/link"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// saturatedSubflow is one greedy subflow on a 10 Mbps, 50 ms RTT path,
// window full and ready to run.
func saturatedSubflow(tb testing.TB) (*sim.Simulator, *Subflow) {
	s := sim.New()
	fwd, err := link.New(s, link.Config{Name: "fwd", Rate: trace.Constant("f", 10, time.Second, 1), PropDelay: 25 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	rev, err := link.New(s, link.Config{Name: "rev", Rate: trace.Constant("r", 100, time.Second, 1), PropDelay: 25 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(s, Config{Name: "bench", Fwd: fwd, Rev: rev})
	if err != nil {
		tb.Fatal(err)
	}
	pump := func() {
		for f.HasSpace() {
			f.Send(Segment{Size: f.MSS()})
		}
	}
	f.OnAcked = pump
	pump()
	return s, f
}

// BenchmarkSaturatedSubflow measures simulator throughput: how fast one
// greedy subflow simulates 10 seconds of a 10 Mbps path.
func BenchmarkSaturatedSubflow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, f := saturatedSubflow(b)
		s.AdvanceTo(10 * time.Second)
		b.ReportMetric(float64(f.DeliveredBytes())*8/10/1e6, "sim-mbps")
	}
}

// TestSaturatedSubflowAllocatesNothing: once slow start's overshoot has
// sized the free list and the event queue (the first virtual second, loss
// episode included), a further second of the benchmark's body — some 850
// segments sent, delivered and ACKed — allocates nothing.
func TestSaturatedSubflowAllocatesNothing(t *testing.T) {
	s, f := saturatedSubflow(t)
	s.AdvanceTo(time.Second)
	if f.LossEvents() == 0 {
		t.Fatal("warm-up second saw no loss; the rig no longer overshoots")
	}
	before := f.DeliveredBytes()
	if n := testing.AllocsPerRun(1, func() { s.Advance(time.Second) }); n != 0 {
		t.Errorf("one saturated second: %v allocs, want 0", n)
	}
	if got := f.DeliveredBytes() - before; got < 2*1_000_000 {
		t.Errorf("only %d bytes delivered in the two measured seconds", got)
	}
}

// TestFlightRecordAllocs: P segments in flight at once cost ⌈P/64⌉
// allocations, the blocks their records are carved from, and sending P
// again once all are ACKed reuses the records at no cost.
func TestFlightRecordAllocs(t *testing.T) {
	for _, p := range []int{1, 63, 64, 65, 200} {
		s := sim.New()
		fast := trace.Constant("f", 10_000, time.Second, 1)
		fwd, _ := link.New(s, link.Config{Name: "fwd", Rate: fast, PropDelay: time.Millisecond})
		rev, _ := link.New(s, link.Config{Name: "rev", Rate: fast, PropDelay: time.Millisecond})
		f, err := New(s, Config{Name: "blocks", Fwd: fwd, Rev: rev, DisableIdleRestart: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ { // size the event heap before counting
			s.Schedule(0, func() {})
		}
		for s.Step() {
		}
		burst := func() {
			f.cwnd = float64(p)
			for i := 0; i < p; i++ {
				f.Send(Segment{Size: f.MSS()})
			}
			for s.Step() {
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		burst()
		runtime.ReadMemStats(&after)
		if got, want := after.Mallocs-before.Mallocs, uint64((p+63)/64); got != want {
			t.Errorf("%d segments in flight: %d allocs, want %d", p, got, want)
		}
		if n := testing.AllocsPerRun(10, burst); n != 0 {
			t.Errorf("%d segments again: %v allocs, want 0", p, n)
		}
		if f.freeLen() != p || f.Inflight() != 0 {
			t.Errorf("%d segments: %d records idle, %d in flight; want %d and 0", p, f.freeLen(), f.Inflight(), p)
		}
	}
}
