// Package mptcp implements the reproduction's multipath transport — the
// userspace stand-in for Linux kernel MPTCP v0.90 that the paper builds on.
// A Conn owns one tcp.Subflow per network path, splits application data
// into MSS segments carrying data-sequence mappings, and distributes them
// with the stock MPTCP packet schedulers (default lowest-RTT, or
// round-robin). The MP-DASH overlay hooks in through two knobs the paper
// adds to the kernel: per-path enable/disable (the scheduler simply skips
// disabled subflows, §6) and per-path throughput estimation exposed upward
// to the video adapter (§3.2).
package mptcp

import (
	"fmt"
	"time"

	"mpdash/internal/link"
	"mpdash/internal/predict"
	"mpdash/internal/sim"
	"mpdash/internal/tcp"
	"mpdash/internal/trace"
)

// DefaultSampleInterval is how often per-path goodput is sampled into the
// Holt-Winters predictors. The paper's trace-driven simulation uses one
// RTT per slot; 100 ms is in that range for metropolitan WiFi.
const DefaultSampleInterval = 100 * time.Millisecond

// DefaultSignalDelay models the client→server latency of the MP-DASH
// decision bit carried in the DSS option (§3.2 "function split"): a path
// toggle takes effect at the sender one half-RTT after the client decides.
const DefaultSignalDelay = 25 * time.Millisecond

// DefaultMeterWindow is the bucket width of per-path delivery meters.
const DefaultMeterWindow = 100 * time.Millisecond

// PathSpec declares one network path of a connection.
type PathSpec struct {
	Name string
	// Rate drives the downlink bottleneck (server→client data direction).
	Rate *trace.Trace
	// RTT is the path round-trip time; each direction gets RTT/2.
	RTT time.Duration
	// Cost is the unit-data cost used by preference-aware scheduling;
	// lower is preferred. (Paper §4: c(WiFi) < c(cell).)
	Cost float64
	// Primary marks the user-preferred path (paper §3.2: the preference
	// is enforced by setting the primary MPTCP interface).
	Primary bool
	// MaxQueueDelay optionally overrides the drop-tail bound.
	MaxQueueDelay time.Duration
	// JitterFrac adds ±fraction per-packet propagation jitter on the
	// data direction (see link.Config). JitterSeed fixes the stream.
	JitterFrac float64
	JitterSeed int64
}

// Config describes a Conn.
type Config struct {
	Paths []PathSpec
	// Scheduler selects the stock MPTCP packet scheduler. Default MinRTT.
	Scheduler SchedulerKind
	// MSS defaults to tcp.DefaultMSS.
	MSS int
	// SampleInterval, SignalDelay, MeterWindow default to the package
	// constants.
	SampleInterval time.Duration
	SignalDelay    time.Duration
	MeterWindow    time.Duration
	// DisableIdleRestart is passed through to the subflows.
	DisableIdleRestart bool
	// CoupledCC installs RFC 6356 LIA coupled congestion control across
	// the subflows. The paper's experiments use decoupled control (§2.1);
	// this knob exists for the ablation bench.
	CoupledCC bool
}

// Path is one subflow plus its bookkeeping.
type Path struct {
	Name    string
	Cost    float64
	Primary bool

	flow      *tcp.Subflow
	fwd, rev  *link.Link
	enabled   bool
	meter     *link.Meter
	predictor *predict.HoltWinters
	// appPredictor is a heavily smoothed estimator backing the
	// application-facing §3.2 interface: rate adaptation wants a stable
	// capacity signal, while the deadline scheduler needs the responsive
	// Holt-Winters forecast to react to fades within a chunk.
	appPredictor *predict.EWMA

	lastSampled     int64
	everEstimated   bool
	lastEstimate    float64 // bits/s, responsive (scheduler-facing)
	lastAppEstimate float64 // bits/s, smoothed (application-facing)

	// signal lands a toggle at the sender: [0] disables the path, [1]
	// enables it and pumps. Bound at NewConn, so a toggle allocates nothing.
	signal [2]func()
}

// Enabled reports whether the MP-DASH overlay currently allows this path.
func (p *Path) Enabled() bool { return p.enabled }

// DeliveredBytes returns bytes delivered to the client over this path.
func (p *Path) DeliveredBytes() int64 { return p.flow.DeliveredBytes() }

// LossEvents returns the subflow's window-cut congestion events.
func (p *Path) LossEvents() int64 { return p.flow.LossEvents() }

// SRTT exposes the subflow's smoothed RTT.
func (p *Path) SRTT() time.Duration { return p.flow.SRTT() }

// Meter returns the delivery meter (per-window byte counts).
func (p *Path) Meter() *link.Meter { return p.meter }

// Estimate returns the Holt-Winters forecast of the path's goodput in
// bits/s. Estimates persist across idle and disabled periods (the kernel
// remembers the last time the subflow carried data).
func (p *Path) Estimate() float64 { return p.lastEstimate }

// Conn is a multipath connection (client-download oriented: data flows
// server→client, which is the DASH direction).
type Conn struct {
	sim   *sim.Simulator
	paths []*Path
	sched Scheduler
	mss   int

	sampleInterval time.Duration
	signalDelay    time.Duration

	active *Transfer
	// dataSeq is the MPTCP data sequence number of the next byte handed
	// to any subflow.
	dataSeq uint64

	// recorder, when set, captures every delivered segment (the paper's
	// packet-trace input to the analysis tool).
	recorder Recorder

	sampleFn func() // c.sample, bound once
}

// Recorder observes delivered segments for offline analysis. pathIndex
// refers to the Paths() order; dss is the segment's encoded DSS option.
type Recorder interface {
	RecordSegment(ts time.Duration, pathIndex int, size int, dss DSSOption)
}

// SetRecorder installs (or clears, with nil) a segment recorder.
func (c *Conn) SetRecorder(r Recorder) { c.recorder = r }

// PathNames returns the path names in Paths() order.
func (c *Conn) PathNames() []string {
	out := make([]string, len(c.paths))
	for i, p := range c.paths {
		out[i] = p.Name
	}
	return out
}

// NewConn builds a connection with one subflow per path spec.
func NewConn(s *sim.Simulator, cfg Config) (*Conn, error) {
	if s == nil {
		return nil, fmt.Errorf("mptcp: nil simulator")
	}
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("mptcp: at least one path required")
	}
	sched, err := newScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	mss := cfg.MSS
	if mss == 0 {
		mss = tcp.DefaultMSS
	}
	si := cfg.SampleInterval
	if si == 0 {
		si = DefaultSampleInterval
	}
	sd := cfg.SignalDelay
	if sd == 0 {
		sd = DefaultSignalDelay
	}
	mw := cfg.MeterWindow
	if mw == 0 {
		mw = DefaultMeterWindow
	}
	c := &Conn{
		sim:            s,
		sched:          sched,
		mss:            mss,
		sampleInterval: si,
		signalDelay:    sd,
	}
	c.sampleFn = c.sample
	seen := map[string]bool{}
	primaries := 0
	for _, ps := range cfg.Paths {
		if ps.Name == "" {
			return nil, fmt.Errorf("mptcp: path with empty name")
		}
		if seen[ps.Name] {
			return nil, fmt.Errorf("mptcp: duplicate path %q", ps.Name)
		}
		seen[ps.Name] = true
		if ps.Primary {
			primaries++
		}
		fwd, err := link.New(s, link.Config{
			Name:          ps.Name + "-down",
			Rate:          ps.Rate,
			PropDelay:     ps.RTT / 2,
			MaxQueueDelay: ps.MaxQueueDelay,
			JitterFrac:    ps.JitterFrac,
			JitterSeed:    ps.JitterSeed,
		})
		if err != nil {
			return nil, err
		}
		// The ACK direction is never the bottleneck for a download.
		rev, err := link.New(s, link.Config{
			Name:      ps.Name + "-up",
			Rate:      trace.Constant(ps.Name+"-up", 1000, time.Second, 1),
			PropDelay: ps.RTT / 2,
		})
		if err != nil {
			return nil, err
		}
		flow, err := tcp.New(s, tcp.Config{
			Name:               ps.Name,
			Fwd:                fwd,
			Rev:                rev,
			MSS:                mss,
			DisableIdleRestart: cfg.DisableIdleRestart,
		})
		if err != nil {
			return nil, err
		}
		p := &Path{
			Name:         ps.Name,
			Cost:         ps.Cost,
			Primary:      ps.Primary,
			flow:         flow,
			fwd:          fwd,
			rev:          rev,
			enabled:      true,
			meter:        link.NewMeter(mw),
			predictor:    predict.NewDefaultHoltWinters(),
			appPredictor: predict.NewEWMA(0.1),
		}
		p.signal[0] = func() { p.enabled = false }
		p.signal[1] = func() { p.enabled = true; c.pump() }
		idx := len(c.paths)
		flow.OnDelivered = func(seg tcp.Segment) { c.onDelivered(p, idx, seg) }
		flow.OnAcked = c.pump
		c.paths = append(c.paths, p)
	}
	if primaries != 1 {
		return nil, fmt.Errorf("mptcp: exactly one primary path required, got %d", primaries)
	}
	if cfg.CoupledCC {
		c.installCoupled()
	}
	c.scheduleSample()
	return c, nil
}

// Paths returns the connection's paths in declaration order.
func (c *Conn) Paths() []*Path { return c.paths }

// Path returns the named path or nil.
func (c *Conn) Path(name string) *Path {
	for _, p := range c.paths {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// PrimaryPath returns the user-preferred path.
func (c *Conn) PrimaryPath() *Path {
	for _, p := range c.paths {
		if p.Primary {
			return p
		}
	}
	return nil // unreachable: NewConn enforces exactly one
}

// SetPathEnabled toggles a path for the packet scheduler. Following the
// paper's function split, the decision is made at the client and takes
// effect at the data sender one signalling delay later. Disabling a path
// never aborts segments already in flight (§6: "we simply skip it in the
// scheduling function"). Toggling the primary path is rejected: MP-DASH
// always keeps the preferred interface on.
func (c *Conn) SetPathEnabled(name string, on bool) error {
	p := c.Path(name)
	if p == nil {
		return fmt.Errorf("mptcp: unknown path %q", name)
	}
	if p.Primary && !on {
		return fmt.Errorf("mptcp: cannot disable primary path %q", name)
	}
	if on {
		c.sim.Schedule(c.signalDelay, p.signal[1])
	} else {
		c.sim.Schedule(c.signalDelay, p.signal[0])
	}
	return nil
}

// SetPathEnabledNow applies a path toggle immediately (used by tests and
// by the offline tooling; the experiments go through SetPathEnabled).
func (c *Conn) SetPathEnabledNow(name string, on bool) error {
	p := c.Path(name)
	if p == nil {
		return fmt.Errorf("mptcp: unknown path %q", name)
	}
	if p.Primary && !on {
		return fmt.Errorf("mptcp: cannot disable primary path %q", name)
	}
	p.enabled = on
	if on {
		c.pump()
	}
	return nil
}

// SetPathCost updates a path's unit-data cost at runtime. The MP-DASH
// scheduler re-reads costs on every evaluation, so policies can steer
// traffic dynamically (§4: cost "configured either statically or
// dynamically").
func (c *Conn) SetPathCost(name string, cost float64) error {
	p := c.Path(name)
	if p == nil {
		return fmt.Errorf("mptcp: unknown path %q", name)
	}
	if cost < 0 {
		return fmt.Errorf("mptcp: negative cost %v", cost)
	}
	p.Cost = cost
	return nil
}

// PathAppThroughput returns the named path's smoothed application-facing
// estimate (bits/s); 0 for unknown paths.
func (c *Conn) PathAppThroughput(name string) float64 {
	p := c.Path(name)
	if p == nil {
		return 0
	}
	return p.lastAppEstimate
}

// AggregateThroughput is the §3.2 interface for rate adaptation: the sum
// of per-path estimates across all paths regardless of current enablement,
// because that is the capacity MPTCP could deliver if MP-DASH allowed it.
// It uses the smoothed application-facing estimators — a video player
// wants a stable capacity signal, not the scheduler's fast-twitch fade
// detector.
func (c *Conn) AggregateThroughput() float64 {
	var s float64
	for _, p := range c.paths {
		s += p.lastAppEstimate
	}
	return s
}

// onDelivered runs at the client when a segment arrives on path p, which
// is c.paths[idx].
func (c *Conn) onDelivered(p *Path, idx int, seg tcp.Segment) {
	p.meter.Add(c.sim.Now(), seg.Size)
	if c.recorder != nil {
		c.recorder.RecordSegment(c.sim.Now(), idx, seg.Size, DSSOption{
			DataSeq:              seg.DataSeq,
			DataLen:              uint16(seg.Size),
			MPDashCellularEnable: c.secondariesEnabled(),
		})
	}
	// seg.Meta is the transfer the bytes belong to (see pump).
	if t, _ := seg.Meta.(*Transfer); t != nil && t == c.active {
		t.noteDelivered(seg.Size)
	}
}

// secondariesEnabled reports whether any secondary path is currently
// enabled (the decision bit a DSS option would carry).
func (c *Conn) secondariesEnabled() bool {
	for _, p := range c.paths {
		if !p.Primary && p.enabled {
			return true
		}
	}
	return false
}

// scheduleSample arms the periodic per-path goodput sampler.
func (c *Conn) scheduleSample() { c.sim.Schedule(c.sampleInterval, c.sampleFn) }

// sample observes one interval of per-path goodput and re-arms itself.
func (c *Conn) sample() {
	for _, p := range c.paths {
		cur := p.flow.DeliveredBytes()
		delta := cur - p.lastSampled
		p.lastSampled = cur
		// Only observe while the path is actively carrying a
		// transfer; idle zeros would destroy the estimate. Windows
		// that only partially overlap the transfer (before the
		// first byte landed, or less than one full interval after
		// it) would bias the sample low, so they are skipped too.
		fullyActive := c.active != nil && !c.active.done &&
			c.active.firstByteAt > 0 &&
			c.sim.Now()-c.active.firstByteAt >= c.sampleInterval
		if fullyActive && p.enabled {
			bps := float64(delta*8) / c.sampleInterval.Seconds()
			p.predictor.Observe(bps)
			p.lastEstimate = p.predictor.Predict()
			p.appPredictor.Observe(bps)
			p.lastAppEstimate = p.appPredictor.Predict()
			p.everEstimated = true
		}
	}
	if c.active != nil {
		c.pump()
	}
	c.scheduleSample()
}

// pump hands segments to subflows while the active transfer has unsent
// bytes and the scheduler finds an enabled subflow with window space.
func (c *Conn) pump() {
	t := c.active
	if t == nil || t.done {
		return
	}
	if !t.started {
		return
	}
	for t.unsent > 0 {
		p := c.sched.Select(c.paths)
		if p == nil {
			return
		}
		n := c.mss
		if int64(n) > t.unsent {
			n = int(t.unsent)
		}
		t.unsent -= int64(n)
		// The data-sequence mapping (the in-simulator analogue of the DSS
		// option; the wire codec lives in wire.go) rides in the segment:
		// sequence number, length = Size, and the owning transfer.
		p.flow.Send(tcp.Segment{Size: n, DataSeq: c.dataSeq, Meta: t})
		c.dataSeq += uint64(n)
	}
}
