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

	busyUntil time.Duration

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
	return l, nil
}

// Packet is a caller-owned record for one packet. The caller fills Size,
// Deliver and Drop, hands the record to Send, and must not touch or resend
// it until one of the two callbacks has been entered; from then on it is
// the caller's again and may go straight back onto a link. A record that
// is reused this way costs no allocation per packet: its two link-side
// callbacks are bound once, on first use.
type Packet struct {
	Size int
	// Deliver fires at the packet's arrival time at the far end. Drop
	// fires, for a packet the queue refused, at the time the loss becomes
	// observable to the sender. Either may be nil.
	Deliver, Drop func()

	link            *Link // the link that holds the record, nil when the caller does
	arrive, dropped func()
}

func (p *Packet) onArrival() {
	p.link.deliveredBytes += int64(p.Size)
	p.link = nil
	if p.Deliver != nil {
		p.Deliver()
	}
}

func (p *Packet) onDrop() {
	p.link = nil
	p.Drop()
}

// Send enqueues p. If the queue is full the packet is dropped and p.Drop
// fires at the time the loss becomes observable to the sender (one
// RTT-ish later would require the reverse path; as a simplification the
// drop signal fires after the current queueing delay, standing in for
// duplicate-ACK detection).
func (l *Link) Send(p *Packet) {
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
