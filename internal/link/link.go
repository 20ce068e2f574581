// Package link models a one-way bottleneck network path: a FIFO transmitter
// whose service rate follows a bandwidth trace, a fixed propagation delay,
// and a drop-tail queue bounded by maximum queueing delay. One Link per
// direction per path gives the simulator Dummynet-equivalent shaping
// (paper §7.1) with time-varying rates (paper §7.2.2).
package link

import (
	"fmt"
	"math/rand"
	"time"

	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// DefaultMaxQueueDelay bounds how much queueing a link tolerates before
// dropping. 200 ms approximates a sanely-provisioned access-point buffer;
// the paper notes its Dummynet setup avoided severe bufferbloat.
const DefaultMaxQueueDelay = 200 * time.Millisecond

// Link is a unidirectional bottleneck. Not safe for concurrent use; it runs
// on the single-threaded simulator.
type Link struct {
	Name string

	sim           *sim.Simulator
	rate          *trace.Trace
	propDelay     time.Duration
	maxQueueDelay time.Duration
	jitterFrac    float64
	rng           *rand.Rand

	busyUntil       time.Duration
	arrivals, drops flightList // packets on their way out, drop signals on their way back

	// Send's memo: the service rate over the rate trace's slot
	// [slotFrom, slotTo), and how long a txSize-byte packet takes at it.
	// Traces are read-only, so both hold until a send starts in another
	// slot; most packets on a link are one size.
	slotFrom, slotTo time.Duration
	rateBps          float64
	txSize           int
	txTime           time.Duration

	deliveredBytes int64
	droppedPackets int64
	sentPackets    int64
}

// Config describes a Link.
type Config struct {
	Name string
	// Rate is the time-varying service rate. Required.
	Rate *trace.Trace
	// PropDelay is the one-way propagation delay. Half the path RTT.
	PropDelay time.Duration
	// MaxQueueDelay bounds drop-tail queueing; zero means
	// DefaultMaxQueueDelay.
	MaxQueueDelay time.Duration
	// JitterFrac adds per-packet propagation jitter, uniform in
	// ±JitterFrac of PropDelay (wireless links are not metronomes).
	// Zero disables jitter. Must be in [0, 1).
	JitterFrac float64
	// JitterSeed fixes the jitter stream for determinism.
	JitterSeed int64
}

// New creates a Link on the given simulator.
func New(s *sim.Simulator, cfg Config) (*Link, error) {
	if s == nil {
		return nil, fmt.Errorf("link %q: nil simulator", cfg.Name)
	}
	if err := cfg.Rate.Validate(); err != nil {
		return nil, fmt.Errorf("link %q: %w", cfg.Name, err)
	}
	if cfg.PropDelay < 0 {
		return nil, fmt.Errorf("link %q: negative propagation delay %v", cfg.Name, cfg.PropDelay)
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac >= 1 {
		return nil, fmt.Errorf("link %q: jitter fraction %v outside [0, 1)", cfg.Name, cfg.JitterFrac)
	}
	mqd := cfg.MaxQueueDelay
	if mqd == 0 {
		mqd = DefaultMaxQueueDelay
	}
	l := &Link{
		Name:          cfg.Name,
		sim:           s,
		rate:          cfg.Rate,
		propDelay:     cfg.PropDelay,
		maxQueueDelay: mqd,
		jitterFrac:    cfg.JitterFrac,
	}
	if cfg.JitterFrac > 0 {
		l.rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	l.arrivals.fire, l.drops.fire = l.fireArrival, l.fireDrop
	return l, nil
}

// Packet is a caller-owned record for one packet. The caller fills Size
// and Recv, hands the record to Send, and must not touch or resend it
// until one of Recv's methods has been entered; from then on it is the
// caller's again and may go straight back onto a link. Until then the
// link threads its in-flight list through the record itself, so a packet
// costs no allocation.
type Packet struct {
	Size int
	// Recv is told the packet's fate. Nil: an arrival is counted and
	// nothing is told, and a packet the queue refuses is forgotten.
	Recv Receiver

	link       *Link         // the link that holds the record, nil when the caller does
	at         time.Duration // when the callback is due
	seq        uint64        // reserved at Send: the callback's place among events at the same time
	prev, next *Packet
	queued     bool // the record's (at, seq) is in the simulator's heap
}

// Receiver is what a packet's sender implements to learn its fate. One
// receiver may own several records: the *Packet tells them apart.
type Receiver interface {
	// Arrive runs at the packet's arrival time at the far end.
	Arrive(p *Packet)
	// Lost runs, for a packet the queue refused, at the time the loss
	// becomes observable to the sender.
	Lost(p *Packet)
}

// flightList is a FIFO of records in (at, seq) order. A link's due times
// come out sorted (jitter apart), so only the head is in the simulator's
// heap: the event set is as deep as there are links, not packets in
// flight. What fires when is unchanged — a parked record is never due
// before its list's head, and it keeps the seq it reserved at Send.
type flightList struct {
	head, tail *Packet
	fire       func() // bound once; the heap entry of whichever record is head
}

// park takes ownership of p until at. A jittered packet may be due before
// ones sent earlier: it walks back from the tail past them (and stays
// behind a tie — its seq is the largest).
func (l *Link) park(q *flightList, p *Packet, at time.Duration) {
	p.link, p.at, p.seq = l, at, l.sim.ReserveSeq()
	after := q.tail
	for after != nil && after.at > at {
		after = after.prev
	}
	p.prev = after
	if after == nil {
		p.next, q.head = q.head, p
	} else {
		p.next, after.next = after.next, p
	}
	if p.next == nil {
		q.tail = p
	} else {
		p.next.prev = p
	}
	if after == nil {
		l.arm(q)
	}
}

// arm puts the head's entry into the simulator's heap. A head that was
// overtaken still has its entry there; queued keeps it from getting two.
func (l *Link) arm(q *flightList) {
	if p := q.head; p != nil && !p.queued {
		p.queued = true
		l.sim.ScheduleSeq(p.at, p.seq, q.fire)
	}
}

// pop hands the head back to the caller when its entry fires and re-arms
// the list — before any callback runs, which may Send the same record.
func (l *Link) pop(q *flightList) *Packet {
	p := q.head
	if p == nil || !p.queued {
		panic(fmt.Sprintf("link %q: event fired for a packet that is not first in flight", l.Name))
	}
	if q.head = p.next; q.head == nil {
		q.tail = nil
	} else {
		q.head.prev = nil
	}
	p.link, p.next, p.queued = nil, nil, false
	l.arm(q)
	return p
}

func (l *Link) fireArrival() {
	p := l.pop(&l.arrivals)
	l.deliveredBytes += int64(p.Size)
	if p.Recv != nil {
		p.Recv.Arrive(p)
	}
}

func (l *Link) fireDrop() {
	p := l.pop(&l.drops)
	p.Recv.Lost(p)
}

// Send enqueues p. If the queue is full the packet is dropped and
// p.Recv.Lost runs at the time the loss becomes observable to the sender
// (one RTT-ish later would require the reverse path; as a simplification
// the drop signal fires after the current queueing delay, standing in for
// duplicate-ACK detection).
func (l *Link) Send(p *Packet) {
	if p.Size <= 0 {
		panic(fmt.Sprintf("link %q: packet size %d", l.Name, p.Size))
	}
	if p.link != nil {
		panic(fmt.Sprintf("link %q: packet record is still on link %q", l.Name, p.link.Name))
	}
	now := l.sim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	queueDelay := start - now
	if queueDelay > l.maxQueueDelay {
		l.droppedPackets++
		if p.Recv != nil {
			l.park(&l.drops, p, start)
		}
		return
	}
	if start < l.slotFrom || start >= l.slotTo {
		l.slotFrom = start / l.rate.Slot * l.rate.Slot
		l.slotTo = l.slotFrom + l.rate.Slot
		if l.rateBps = l.rate.AtBps(start); l.rateBps <= 0 {
			l.rateBps = 1e3 // a dead link still drains, glacially
		}
		l.txSize = 0
	}
	if p.Size != l.txSize {
		l.txSize = p.Size
		if l.txTime = time.Duration(float64(p.Size*8) / l.rateBps * float64(time.Second)); l.txTime <= 0 {
			l.txTime = time.Nanosecond
		}
	}
	l.busyUntil = start + l.txTime
	l.sentPackets++
	prop := l.propDelay
	if l.rng != nil {
		prop += time.Duration((2*l.rng.Float64() - 1) * l.jitterFrac * float64(prop))
	}
	l.park(&l.arrivals, p, l.busyUntil+prop)
}

// QueueDelay returns the current backlog at the transmitter.
func (l *Link) QueueDelay() time.Duration {
	now := l.sim.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

// PropDelay returns the one-way propagation delay.
func (l *Link) PropDelay() time.Duration { return l.propDelay }

// RateAt returns the configured service rate (bits/s) at virtual time d.
func (l *Link) RateAt(d time.Duration) float64 { return l.rate.AtBps(d) }

// DeliveredBytes returns the total bytes delivered to the far end.
func (l *Link) DeliveredBytes() int64 { return l.deliveredBytes }

// DroppedPackets returns the number of packets dropped at the queue.
func (l *Link) DroppedPackets() int64 { return l.droppedPackets }

// SentPackets returns the number of packets accepted for transmission.
func (l *Link) SentPackets() int64 { return l.sentPackets }
