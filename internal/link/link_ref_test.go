package link

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// refLink is the link as it stood at commit 24e443f, Send kept verbatim:
// every packet goes straight onto the simulator's heap. It is the order
// oracle — whatever Link does with its in-flight packets, every callback
// must fire at the same virtual time in the same sequence as here.
type refLink struct {
	Name string

	sim           *sim.Simulator
	rate          *trace.Trace
	propDelay     time.Duration
	maxQueueDelay time.Duration
	jitterFrac    float64
	rng           *rand.Rand

	busyUntil time.Duration

	deliveredBytes int64
	droppedPackets int64
	sentPackets    int64
}

type refPacket struct {
	Size          int
	Deliver, Drop func()

	link            *refLink
	arrive, dropped func()
}

func newRefLink(s *sim.Simulator, cfg Config) *refLink {
	l := &refLink{
		Name:          cfg.Name,
		sim:           s,
		rate:          cfg.Rate,
		propDelay:     cfg.PropDelay,
		maxQueueDelay: cfg.MaxQueueDelay,
		jitterFrac:    cfg.JitterFrac,
	}
	if cfg.JitterFrac > 0 {
		l.rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	return l
}

func (p *refPacket) onArrival() {
	p.link.deliveredBytes += int64(p.Size)
	p.link = nil
	if p.Deliver != nil {
		p.Deliver()
	}
}

func (p *refPacket) onDrop() {
	p.link = nil
	p.Drop()
}

func (l *refLink) Send(p *refPacket) {
	if p.Size <= 0 {
		panic(fmt.Sprintf("link %q: packet size %d", l.Name, p.Size))
	}
	if p.link != nil {
		panic(fmt.Sprintf("link %q: packet record is still on link %q", l.Name, p.link.Name))
	}
	if p.arrive == nil {
		p.arrive, p.dropped = p.onArrival, p.onDrop
	}
	now := l.sim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	queueDelay := start - now
	if queueDelay > l.maxQueueDelay {
		l.droppedPackets++
		if p.Drop != nil {
			p.link = l
			l.sim.Schedule(queueDelay, p.dropped)
		}
		return
	}
	rate := l.rate.AtBps(start)
	if rate <= 0 {
		rate = 1e3 // a dead link still drains, glacially
	}
	txTime := time.Duration(float64(p.Size*8) / rate * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	l.busyUntil = start + txTime
	l.sentPackets++
	prop := l.propDelay
	if l.rng != nil {
		prop += time.Duration((2*l.rng.Float64() - 1) * l.jitterFrac * float64(prop))
	}
	p.link = l
	l.sim.ScheduleAt(l.busyUntil+prop, p.arrive)
}

func (l *refLink) QueueDelay() time.Duration {
	now := l.sim.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

func (l *refLink) PropDelay() time.Duration { return l.propDelay }
func (l *refLink) DeliveredBytes() int64    { return l.deliveredBytes }
func (l *refLink) DroppedPackets() int64    { return l.droppedPackets }
func (l *refLink) SentPackets() int64       { return l.sentPackets }

// scriptLink is what an order script drives: Link with Packet, refLink
// with refPacket.
type scriptLink[P any] interface {
	Send(*P)
	QueueDelay() time.Duration
	PropDelay() time.Duration
	DeliveredBytes() int64
	DroppedPackets() int64
	SentPackets() int64
}

// orderEvent is one observable of a script run: a callback (or a bare
// simulator event, or a closing counter) with the virtual time it
// happened at and the record it belongs to.
type orderEvent struct {
	at   time.Duration
	kind byte // 'D'eliver, 'X' drop, 'M' bare sim event, 'c' counters of link id
	id   int
	n    [3]int64 // 'c' only: delivered bytes, dropped, sent
}

var scriptRatesMbps = [8]float64{0, 0, 0.5, 1, 2, 8, 8, 64}

// runOrderScript decodes data into a two-link scenario and a sequence of
// operations, runs it to quiescence and returns everything observable.
//
//	header  jitter ∈ {0, 0.4, 0.95} · MaxQueueDelay 1–8 ms · the two
//	        PropDelays 0–7 ms · four 4 ms rate slots (zero-rate included)
//	op 0    advance the clock by b × 100 µs (0: stay, so operations collide)
//	op 1    burst of 1–8 packets on one link; each record carries a budget
//	        of up to 4 sends made from inside its own callbacks — on
//	        Deliver and on Drop separately: resend on the same link,
//	        bounce to the other link, or resend plus a zero-delay bare
//	        event — and may have a nil Deliver or a nil Drop
//	op 2    a bare sim.Schedule event aimed at the link's next drop time
//	        (now + QueueDelay), its last arrival (… + PropDelay), or b × 100 µs
//	op 3    as op 0 in 1 µs units, to land between jittered arrivals
func runOrderScript[P any, L scriptLink[P]](data []byte, newLink func(*sim.Simulator, Config) L,
	newPacket func(size int, deliver, drop func()) *P) []orderEvent {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := sim.New()
	var log []orderEvent
	ids := 0
	marker := func(delay time.Duration) {
		id := ids
		ids++
		s.Schedule(delay, func() { log = append(log, orderEvent{at: s.Now(), kind: 'M', id: id}) })
	}

	jitter := [3]float64{0, 0.4, 0.95}[next()%3]
	mqd := time.Duration(1+next()%8) * time.Millisecond
	props := next()
	rates := &trace.Trace{Name: "script", Slot: 4 * time.Millisecond}
	for i := 0; i < 4; i++ {
		rates.Mbps = append(rates.Mbps, scriptRatesMbps[next()%8])
	}
	var links [2]L
	for i := range links {
		links[i] = newLink(s, Config{
			Name: strconv.Itoa(i), Rate: rates, MaxQueueDelay: mqd,
			PropDelay:  time.Duration(props>>(3*i)%8) * time.Millisecond,
			JitterFrac: jitter, JitterSeed: int64(i + 1),
		})
	}

	for ops := 0; len(data) > 0 && ops < 2000; ops++ {
		op, a, b, c := next(), next(), next(), next()
		li := int(a & 1)
		switch op % 4 {
		case 0:
			s.Advance(time.Duration(b) * 100 * time.Microsecond)
		case 3:
			s.Advance(time.Duration(b) * time.Microsecond)
		case 2:
			delay := links[li].QueueDelay()
			switch a >> 1 % 3 {
			case 1:
				delay += links[li].PropDelay()
			case 2:
				delay = time.Duration(b) * 100 * time.Microsecond
			}
			marker(delay)
		case 1:
			for n := 1 + int(a>>1%8); n > 0; n-- {
				id := ids
				ids++
				on, budget := li, int(c>>4%4)
				var p *P
				// react is what a callback does with its own record.
				react := func(how byte) {
					if budget == 0 || how == 0 {
						return
					}
					budget--
					switch how {
					case 2:
						on ^= 1
					case 3:
						marker(0)
					}
					links[on].Send(p)
				}
				deliver := func() {
					log = append(log, orderEvent{at: s.Now(), kind: 'D', id: id})
					react(c % 4)
				}
				drop := func() {
					log = append(log, orderEvent{at: s.Now(), kind: 'X', id: id})
					react(c >> 2 % 4)
				}
				if c>>6&1 == 1 {
					deliver = nil
				}
				if c>>7 == 1 {
					drop = nil
				}
				p = newPacket(100*(1+int(b%15)), deliver, drop)
				links[li].Send(p)
			}
		}
	}
	for steps := 0; s.Step(); steps++ {
		if steps > 1<<20 {
			panic("order script does not quiesce")
		}
	}
	for i, l := range links {
		log = append(log, orderEvent{at: s.Now(), kind: 'c', id: i,
			n: [3]int64{l.DeliveredBytes(), l.DroppedPackets(), l.SentPackets()}})
	}
	return log
}

func runOnLink(data []byte) []orderEvent {
	return runOrderScript(data,
		func(s *sim.Simulator, cfg Config) *Link {
			l, err := New(s, cfg)
			if err != nil {
				panic(err)
			}
			return l
		},
		func(size int, deliver, drop func()) *Packet {
			if deliver == nil && drop == nil {
				return &Packet{Size: size}
			}
			return &Packet{Size: size, Recv: funcs{arrive: deliver, lost: drop}}
		})
}

// funcs is a Receiver over two funcs, either of which may be nil. A
// refused record whose lost is nil is held until its drop signal, where
// refLink forgets it at once; a script cannot tell, because only a
// record's own callbacks ever resend it.
type funcs struct{ arrive, lost func() }

func (r funcs) Arrive(*Packet) {
	if r.arrive != nil {
		r.arrive()
	}
}

func (r funcs) Lost(*Packet) {
	if r.lost != nil {
		r.lost()
	}
}

func runOnRef(data []byte) []orderEvent {
	return runOrderScript(data, newRefLink,
		func(size int, deliver, drop func()) *refPacket {
			return &refPacket{Size: size, Deliver: deliver, Drop: drop}
		})
}

func diffOrder(t *testing.T, data []byte) []orderEvent {
	t.Helper()
	got, want := runOnLink(data), runOnRef(data)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("event %d: link %v %c id %d %v, reference %v %c id %d %v", i,
				got[i].at, got[i].kind, got[i].id, got[i].n, want[i].at, want[i].kind, want[i].id, want[i].n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("link produced %d events, reference %d", len(got), len(want))
	}
	return got
}

// readSeed returns the script in a committed corpus file of FuzzLinkOrder.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLinkOrder", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	script, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s is not a []byte corpus file: %v", name, err)
	}
	return []byte(script)
}

// FuzzLinkOrder: any script fires the identical sequence of (virtual
// time, callback, packet id) on Link and on the every-packet-on-the-heap
// reference, and leaves equal counters.
func FuzzLinkOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { diffOrder(t, data) })
}
