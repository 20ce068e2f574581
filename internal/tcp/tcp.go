// Package tcp models one TCP subflow's sender: slow start, AIMD congestion
// avoidance, multiplicative decrease on loss, and RFC 6298-style RTT
// estimation, running over a forward data link and a reverse ACK link from
// package link. The model is segment-level, not byte-stream level: the
// multipath layer hands complete MSS-sized segments to a subflow, which is
// exactly the granularity the MPTCP packet schedulers operate at.
package tcp

import (
	"fmt"
	"time"

	"mpdash/internal/link"
	"mpdash/internal/sim"
)

// DefaultMSS is the maximum segment size used across the reproduction
// (typical Ethernet-path MSS).
const DefaultMSS = 1460

// InitialWindow is the initial congestion window in segments (IW10,
// RFC 6928, which Linux MPTCP v0.90 used).
const InitialWindow = 10

// Segment is one unit of data in flight. DataSeq and Meta carry
// multipath-layer bookkeeping (the data-sequence number and the owner of
// the bytes) opaquely through the subflow; Meta should hold a pointer, so
// that filling it does not allocate.
type Segment struct {
	Size    int
	DataSeq uint64
	Meta    any

	sentAt  time.Duration
	retrans bool
}

// flight is the record of one segment between Send and its ACK. It owns
// the segment's data and ACK packet records and is their link.Receiver,
// telling them apart by address; a subflow carves records out of blocks
// of flightBlock and keeps its idle ones on a free list, so the
// steady-state packet path allocates nothing. At most one event is
// pending per record at any time (data on fwd, or its drop signal, or the
// ACK on rev, or the late ACK), which is why one record and one copy of
// the segment suffice.
type flight struct {
	f         *Subflow
	seg       Segment
	data, ack link.Packet
	lateAck   func()  // onAck, bound at the record's first lost ACK
	next      *flight // free list
}

// flightBlock is how many records one allocation makes.
const flightBlock = 64

// Subflow is a single-path TCP sender model.
type Subflow struct {
	Name string

	sim *sim.Simulator
	fwd *link.Link // data direction
	rev *link.Link // ACK direction
	mss int

	cwnd     float64 // segments
	ssthresh float64
	inflight int

	free  *flight  // idle flight records
	block []flight // records not yet handed out

	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool

	lastSend       time.Duration
	lastWindowCut  time.Duration
	idleRestart    bool
	deliveredBytes int64
	ackedBytes     int64
	lossEvents     int64

	// OnDelivered fires when a segment's data arrives at the receiver —
	// the moment the video player sees the bytes.
	OnDelivered func(seg Segment)
	// OnAcked fires at the sender when an ACK returns and window space
	// opens; the multipath layer uses it to pump more segments.
	OnAcked func()
	// CAIncrease, when set, overrides the congestion-avoidance window
	// increment per ACK (in segments). The multipath layer installs the
	// RFC 6356 LIA coupled increase here; nil means Reno's 1/cwnd.
	CAIncrease func(f *Subflow) float64
}

// Config describes a Subflow.
type Config struct {
	Name string
	// Fwd carries data sender→receiver, Rev carries ACKs back. Required.
	Fwd, Rev *link.Link
	// MSS defaults to DefaultMSS.
	MSS int
	// DisableIdleRestart keeps cwnd across idle periods. Linux restarts
	// slow start after an RTO of idle; the reproduction does too unless
	// this is set.
	DisableIdleRestart bool
}

// New creates a subflow sender.
func New(s *sim.Simulator, cfg Config) (*Subflow, error) {
	if s == nil {
		return nil, fmt.Errorf("tcp %q: nil simulator", cfg.Name)
	}
	if cfg.Fwd == nil || cfg.Rev == nil {
		return nil, fmt.Errorf("tcp %q: both links required", cfg.Name)
	}
	mss := cfg.MSS
	if mss == 0 {
		mss = DefaultMSS
	}
	if mss < 0 {
		return nil, fmt.Errorf("tcp %q: negative MSS %d", cfg.Name, mss)
	}
	return &Subflow{
		Name:        cfg.Name,
		sim:         s,
		fwd:         cfg.Fwd,
		rev:         cfg.Rev,
		mss:         mss,
		cwnd:        InitialWindow,
		ssthresh:    1 << 20, // effectively unbounded until first loss
		idleRestart: !cfg.DisableIdleRestart,
	}, nil
}

// MSS returns the subflow's maximum segment size.
func (f *Subflow) MSS() int { return f.mss }

// HasSpace reports whether the congestion window admits another segment.
func (f *Subflow) HasSpace() bool {
	f.maybeIdleRestart()
	return float64(f.inflight) < f.cwnd
}

// Inflight returns the number of unacknowledged segments.
func (f *Subflow) Inflight() int { return f.inflight }

// Cwnd returns the current congestion window in segments.
func (f *Subflow) Cwnd() float64 { return f.cwnd }

// SRTT returns the smoothed RTT estimate. Before any sample it returns the
// static two-way propagation delay of the links.
func (f *Subflow) SRTT() time.Duration {
	if f.hasRTT {
		return f.srtt
	}
	return f.fwd.PropDelay() + f.rev.PropDelay()
}

// DeliveredBytes returns bytes that have arrived at the receiver.
func (f *Subflow) DeliveredBytes() int64 { return f.deliveredBytes }

// LossEvents returns the number of window-cut congestion events.
func (f *Subflow) LossEvents() int64 { return f.lossEvents }

// Send transmits one segment. The caller must have checked HasSpace;
// sending without space panics, because it means the multipath scheduler
// is broken.
func (f *Subflow) Send(seg Segment) {
	if !f.HasSpace() {
		panic(fmt.Sprintf("tcp %q: Send without window space", f.Name))
	}
	if seg.Size <= 0 {
		panic(fmt.Sprintf("tcp %q: segment size %d", f.Name, seg.Size))
	}
	fl := f.free
	if fl == nil {
		fl = f.newFlight()
	} else {
		f.free = fl.next
	}
	f.inflight++
	seg.sentAt = f.sim.Now()
	f.lastSend = seg.sentAt
	fl.seg = seg
	fl.data.Size = seg.Size
	f.fwd.Send(&fl.data)
}

func (f *Subflow) newFlight() *flight {
	if len(f.block) == 0 {
		f.block = make([]flight, flightBlock)
	}
	fl := &f.block[0]
	f.block = f.block[1:]
	fl.f = f
	fl.data.Recv = fl
	fl.ack.Size, fl.ack.Recv = 40, fl // pure ACK, 40 bytes
	return fl
}

// Arrive implements link.Receiver: the data reached the receiver, or the
// ACK reached the sender.
func (fl *flight) Arrive(p *link.Packet) {
	if p == &fl.data {
		fl.onDataArrival()
	} else {
		fl.onAck()
	}
}

// Lost implements link.Receiver: a queue refused the data or the ACK.
func (fl *flight) Lost(p *link.Packet) {
	if p == &fl.data {
		fl.onLoss()
	} else {
		fl.onAckLost()
	}
}

func (fl *flight) onDataArrival() {
	f := fl.f
	f.deliveredBytes += int64(fl.seg.Size)
	if f.OnDelivered != nil {
		f.OnDelivered(fl.seg)
	}
	f.rev.Send(&fl.ack)
}

// onAckLost: in real TCP a later cumulative ACK covers a lost ACK. Model
// that as the ACK arriving one SRTT later.
func (fl *flight) onAckLost() {
	if fl.lateAck == nil {
		fl.lateAck = fl.onAck
	}
	fl.f.sim.Schedule(fl.f.SRTT(), fl.lateAck)
}

func (fl *flight) onAck() {
	f := fl.f
	f.inflight--
	f.ackedBytes += int64(fl.seg.Size)
	if !fl.seg.retrans { // Karn's rule: no RTT samples from retransmits
		f.addRTTSample(f.sim.Now() - fl.seg.sentAt)
	}
	if f.cwnd < f.ssthresh {
		f.cwnd++ // slow start
	} else if f.CAIncrease != nil {
		f.cwnd += f.CAIncrease(f)
	} else {
		f.cwnd += 1 / f.cwnd // Reno congestion avoidance
	}
	// The record is idle from here: recycle it before OnAcked pumps, so
	// the segment that fills the freed window slot reuses it.
	fl.seg = Segment{}
	fl.next, f.free = f.free, fl
	if f.OnAcked != nil {
		f.OnAcked()
	}
}

func (fl *flight) onLoss() {
	f := fl.f
	// Multiplicative decrease at most once per RTT (NewReno-style: one
	// window cut per loss episode).
	now := f.sim.Now()
	if now-f.lastWindowCut >= f.SRTT() {
		f.lastWindowCut = now
		f.lossEvents++
		f.ssthresh = f.cwnd / 2
		if f.ssthresh < 2 {
			f.ssthresh = 2
		}
		f.cwnd = f.ssthresh
	}
	// Retransmit the segment; it occupies the same window slot and the
	// same record.
	fl.seg.retrans = true
	fl.seg.sentAt = now
	f.fwd.Send(&fl.data)
}

func (f *Subflow) addRTTSample(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if !f.hasRTT {
		f.srtt = sample
		f.rttvar = sample / 2
		f.hasRTT = true
		return
	}
	d := f.srtt - sample
	if d < 0 {
		d = -d
	}
	f.rttvar = (3*f.rttvar + d) / 4
	f.srtt = (7*f.srtt + sample) / 8
}

// maybeIdleRestart applies slow-start restart after an idle period longer
// than one RTO (approximated as SRTT + 4*RTTVAR, floored at 1s as in RFC
// 6298).
func (f *Subflow) maybeIdleRestart() {
	if !f.idleRestart || f.inflight > 0 || f.lastSend == 0 {
		return
	}
	rto := f.SRTT() + 4*f.rttvar
	if rto < time.Second {
		rto = time.Second
	}
	if f.sim.Now()-f.lastSend > rto && f.cwnd > InitialWindow {
		f.cwnd = InitialWindow
		f.ssthresh = 1 << 20
	}
}
