package link

import (
	"slices"
	"testing"
	"time"

	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

func newTestLink(t *testing.T, mbps float64, prop time.Duration) (*sim.Simulator, *Link) {
	t.Helper()
	s := sim.New()
	l, err := New(s, Config{
		Name:      "test",
		Rate:      trace.Constant("r", mbps, time.Second, 1),
		PropDelay: prop,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, l
}

func TestNewValidation(t *testing.T) {
	s := sim.New()
	if _, err := New(nil, Config{Rate: trace.Constant("r", 1, time.Second, 1)}); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := New(s, Config{}); err == nil {
		t.Error("nil rate accepted")
	}
	if _, err := New(s, Config{Rate: trace.Constant("r", 1, time.Second, 1), PropDelay: -time.Second}); err == nil {
		t.Error("negative prop delay accepted")
	}
}

func TestSinglePacketLatency(t *testing.T) {
	// 1 Mbps link, 10ms prop: a 1250-byte packet takes 10ms to serialize,
	// so arrival at 20ms.
	s, l := newTestLink(t, 1.0, 10*time.Millisecond)
	var arrived time.Duration = -1
	l.Send(&Packet{Size: 1250, Recv: funcs{arrive: func() { arrived = s.Now() }}})
	for s.Step() {
	}
	want := 20 * time.Millisecond
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
	if l.DeliveredBytes() != 1250 {
		t.Errorf("DeliveredBytes = %d", l.DeliveredBytes())
	}
}

func TestSerializationQueuing(t *testing.T) {
	// Two back-to-back packets: the second waits for the first.
	s, l := newTestLink(t, 1.0, 0)
	var times []time.Duration
	for i := 0; i < 2; i++ {
		l.Send(&Packet{Size: 1250, Recv: funcs{arrive: func() { times = append(times, s.Now()) }}})
	}
	if l.QueueDelay() != 20*time.Millisecond {
		t.Errorf("QueueDelay = %v, want 20ms", l.QueueDelay())
	}
	for s.Step() {
	}
	if len(times) != 2 || times[0] != 10*time.Millisecond || times[1] != 20*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestThroughputMatchesRate(t *testing.T) {
	// Saturate an 8 Mbps link for 10 simulated seconds; delivered bytes
	// should be within a few percent of 10 MB... 8 Mbps * 10s = 10^7 bytes? 8e6*10/8 = 1e7.
	s, l := newTestLink(t, 8.0, 5*time.Millisecond)
	const pkt = 1460
	var send func()
	send = func() {
		if s.Now() >= 10*time.Second {
			return
		}
		if l.QueueDelay() < 50*time.Millisecond {
			l.Send(&Packet{Size: pkt})
		}
		s.Schedule(time.Millisecond, send)
	}
	s.Schedule(0, send)
	s.AdvanceTo(11 * time.Second)
	got := float64(l.DeliveredBytes())
	want := 8e6 * 10 / 8
	if got < want*0.95 || got > want*1.05 {
		t.Errorf("delivered %v bytes, want ≈%v", got, want)
	}
}

func TestDropTail(t *testing.T) {
	s, l := newTestLink(t, 1.0, 0)
	drops := 0
	// Flood far beyond the 200ms queue cap: at 1 Mbps, 200ms holds 25kB ≈ 20 packets.
	for i := 0; i < 100; i++ {
		l.Send(&Packet{Size: 1250, Recv: funcs{lost: func() { drops++ }}})
	}
	for s.Step() {
	}
	if drops == 0 {
		t.Fatal("no drops under flood")
	}
	if l.DroppedPackets() != int64(drops) {
		t.Errorf("DroppedPackets=%d, callbacks=%d", l.DroppedPackets(), drops)
	}
	if l.SentPackets()+l.DroppedPackets() != 100 {
		t.Errorf("sent+dropped = %d, want 100", l.SentPackets()+l.DroppedPackets())
	}
}

func TestTimeVaryingRate(t *testing.T) {
	// Rate 1 Mbps for first second, then 10 Mbps: a packet sent at t=1.5s
	// serializes at the fast rate.
	s := sim.New()
	tr := trace.Step("var", time.Second, trace.StepSpec{Slots: 1, Mbps: 1}, trace.StepSpec{Slots: 10, Mbps: 10})
	l, err := New(s, Config{Name: "v", Rate: tr})
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(1500 * time.Millisecond)
	var arrived time.Duration
	l.Send(&Packet{Size: 1250, Recv: funcs{arrive: func() { arrived = s.Now() }}})
	for s.Step() {
	}
	want := 1500*time.Millisecond + time.Millisecond // 1250B at 10Mbps = 1ms
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
}

func TestJitterSpreadsArrivals(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{
		Name:       "j",
		Rate:       trace.Constant("r", 1000, time.Second, 1), // negligible serialization
		PropDelay:  50 * time.Millisecond,
		JitterFrac: 0.4,
		JitterSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	send := func() {
		l.Send(&Packet{Size: 100, Recv: funcs{arrive: func() { arrivals = append(arrivals, s.Now()) }}})
	}
	for i := 0; i < 200; i++ {
		send()
		s.Advance(10 * time.Millisecond)
	}
	s.Advance(time.Second)
	if len(arrivals) != 200 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	var min, max time.Duration = time.Hour, 0
	for i, a := range arrivals {
		oneWay := a - time.Duration(i)*10*time.Millisecond
		if oneWay < min {
			min = oneWay
		}
		if oneWay > max {
			max = oneWay
		}
	}
	if min < 30*time.Millisecond || max > 71*time.Millisecond {
		t.Errorf("one-way delays [%v, %v] outside jitter bounds", min, max)
	}
	if max-min < 10*time.Millisecond {
		t.Errorf("jitter spread only %v; not spreading", max-min)
	}
}

func TestJitterValidation(t *testing.T) {
	s := sim.New()
	r := trace.Constant("r", 1, time.Second, 1)
	for _, j := range []float64{-0.1, 1.0, 2.0} {
		if _, err := New(s, Config{Name: "x", Rate: r, JitterFrac: j}); err == nil {
			t.Errorf("jitter %v accepted", j)
		}
	}
}

func TestSendZeroSizePanics(t *testing.T) {
	_, l := newTestLink(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("Send(0) did not panic")
		}
	}()
	l.Send(&Packet{Size: 0})
}

// TestPacketRecordOwnership: a record is the link's from Send until one of
// its callbacks is entered — offering it to any link meanwhile panics,
// whether it is first in flight, parked behind another or dropped — and
// the caller's again from then on, at no cost per trip.
func TestPacketRecordOwnership(t *testing.T) {
	s, l := newTestLink(t, 1.0, 5*time.Millisecond)
	_, other := newTestLink(t, 1.0, 5*time.Millisecond)
	sendPanics := func(l *Link, p *Packet) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		l.Send(p)
		return false
	}
	resendPanics := func(p *Packet) bool { return sendPanics(l, p) }
	trips := 0
	p := &Packet{Size: 1250}
	p.Recv = funcs{arrive: func() {
		if trips++; trips < 3 {
			l.Send(p) // the record is ours again inside its own callback
		}
	}}
	l.Send(p)
	behind := &Packet{Size: 1250}
	l.Send(behind)
	if s.Pending() != 1 {
		t.Errorf("%d heap entries for two packets in flight on one link, want 1", s.Pending())
	}
	if !resendPanics(p) {
		t.Error("a record in flight was accepted again")
	}
	if !resendPanics(behind) {
		t.Error("a record parked behind the head was accepted again")
	}
	if !sendPanics(other, p) || !sendPanics(other, behind) {
		t.Error("a record in flight on one link was accepted by another")
	}
	for s.Step() {
	}
	other.Send(behind) // delivered, so free to go anywhere
	if trips != 3 || l.DeliveredBytes() != 4*1250 {
		t.Errorf("%d trips, %d bytes delivered; want 3 and 5000", trips, l.DeliveredBytes())
	}

	// Fill the queue past its bound, then offer one more: it is dropped,
	// and stays the link's until Drop fires.
	for l.QueueDelay() <= DefaultMaxQueueDelay {
		l.Send(&Packet{Size: 1250})
	}
	dropped := false
	d := &Packet{Size: 1250, Recv: funcs{lost: func() { dropped = true }}}
	l.Send(d)
	if !resendPanics(d) {
		t.Error("a dropped record was accepted again before its drop signal")
	}
	for s.Step() {
	}
	if !dropped {
		t.Fatal("drop signal never fired")
	}
	l.Send(d) // accepted: the queue has drained and the record is free

	// Without a receiver a refused record is forgotten at once: no drop
	// signal is parked, and it is the caller's again.
	for s.Step() {
	}
	for l.QueueDelay() <= DefaultMaxQueueDelay {
		l.Send(&Packet{Size: 1250})
	}
	pending, drops := s.Pending(), l.DroppedPackets()
	orphan := &Packet{Size: 1250}
	l.Send(orphan)
	if l.DroppedPackets() != drops+1 || s.Pending() != pending {
		t.Errorf("a receiverless refusal: %d drops, %d heap entries; want %d and %d",
			l.DroppedPackets(), s.Pending(), drops+1, pending)
	}
	if sendPanics(other, orphan) {
		t.Error("a dropped record without a receiver was still held")
	}
	for s.Step() {
	}

	p.Recv = nil
	if n := testing.AllocsPerRun(100, func() {
		l.Send(p)
		for s.Step() {
		}
	}); n != 0 {
		t.Errorf("reusing a record: %v allocs per packet, want 0", n)
	}
}

// TestFireChecksOrderInvariant: a heap entry of a link is always for the
// packet it holds first; one that fires with nothing in flight, or with a
// head that was never queued, means the order contract is already broken.
func TestFireChecksOrderInvariant(t *testing.T) {
	_, l := newTestLink(t, 1.0, 0)
	firePanics := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		l.fireArrival()
		return false
	}
	if !firePanics() {
		t.Error("fire with nothing in flight did not panic")
	}
	l.Send(&Packet{Size: 1250})
	l.arrivals.head.queued = false
	if !firePanics() {
		t.Error("fire for a head with no heap entry did not panic")
	}
}

// TestJitterOvertakesHeadTwice replays by hand what the committed fuzz
// seed of that name scripts, and watches the list: three packets whose
// jitter draws come out descending, so each becomes head over the one
// before. Every overtaken head keeps its heap entry (three entries, no
// duplicates), and they deliver last sent first.
func TestJitterOvertakesHeadTwice(t *testing.T) {
	var seeded []int
	for _, e := range runOnLink(readSeed(t, "jitter-overtakes-head-twice")) {
		if e.kind == 'D' {
			seeded = append(seeded, e.id)
		}
	}
	if !slices.Equal(seeded, []int{0, 3, 2, 1}) {
		t.Fatalf("the seed delivers %v, want [0 3 2 1]: it no longer scripts this scenario", seeded)
	}
	s := sim.New()
	l, err := New(s, Config{Name: "0", Rate: trace.Constant("r", 64, 4*time.Millisecond, 4),
		PropDelay: 7 * time.Millisecond, MaxQueueDelay: 8 * time.Millisecond, JitterFrac: 0.95, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	send := func(id int) *Packet {
		p := &Packet{Size: 100, Recv: funcs{arrive: func() { order = append(order, id) }}}
		l.Send(p)
		return p
	}
	send(0) // the seed's filler: uses up the first jitter draw
	s.Advance(25500 * time.Microsecond)
	var sent [3]*Packet
	for i := range sent {
		sent[i] = send(i + 1)
		if l.arrivals.head != sent[i] || !sent[i].queued {
			t.Fatalf("packet %d is not the queued head after its Send", i+1)
		}
	}
	if l.arrivals.tail != sent[0] || s.Pending() != 3 {
		t.Fatalf("tail is not the first packet sent, or %d heap entries, want 3", s.Pending())
	}
	for s.Step() {
	}
	if !slices.Equal(order, []int{0, 3, 2, 1}) {
		t.Errorf("delivery order %v, want [0 3 2 1]", order)
	}
	if l.arrivals.head != nil || l.arrivals.tail != nil {
		t.Error("list not empty after draining")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(time.Second)
	m.Add(0, 125000)           // 1 Mbps in window 0
	m.Add(time.Second, 250000) // 2 Mbps in window 1
	m.Add(2500*time.Millisecond, 125000)
	series := m.SeriesMbps()
	if len(series) != 3 {
		t.Fatalf("series len = %d", len(series))
	}
	if series[0] != 1 || series[1] != 2 || series[2] != 1 {
		t.Errorf("series = %v", series)
	}
	if m.TotalBytes() != 500000 {
		t.Errorf("TotalBytes = %d", m.TotalBytes())
	}
	if m.ActiveWindows() != 3 {
		t.Errorf("ActiveWindows = %d", m.ActiveWindows())
	}
	// Ignores garbage.
	m.Add(-time.Second, 10)
	m.Add(0, 0)
	if m.TotalBytes() != 500000 {
		t.Error("meter accepted invalid samples")
	}
}

func TestMeterZeroWindowDefaults(t *testing.T) {
	m := NewMeter(0)
	if m.Window != time.Second {
		t.Errorf("Window = %v", m.Window)
	}
}
