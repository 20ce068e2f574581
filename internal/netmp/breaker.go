package netmp

// Per-origin circuit breaker: the client-side health gate of the origin
// tier. Each origin's recent request outcomes (success or failure) feed a
// rolling window; when the windowed error rate crosses the trip
// threshold, the breaker opens and the origin stops receiving traffic.
// After a cooldown it admits a single half-open probe: a verified
// success closes the breaker, a failure reopens it. The design follows
// QAware's continuously-observed per-endpoint quality signals, applied
// at origin rather than queue granularity.

import (
	"fmt"
	"sync"
	"time"

	"mpdash/internal/obs"
)

// BreakerState is a circuit breaker's tri-state.
type BreakerState int32

const (
	// BreakerClosed: the origin is healthy; requests flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the origin tripped; requests are refused until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; one probe request is admitted to
	// test the origin.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerPolicy bounds a per-origin circuit breaker. The zero value
// selects the defaults noted on each field.
type BreakerPolicy struct {
	// Window is the rolling outcome-sample window size. Default 16.
	Window int
	// MinSamples is the minimum number of windowed samples before the
	// error rate can trip the breaker. Default 4.
	MinSamples int
	// TripErrorRate opens the breaker when the windowed error rate
	// reaches it. Default 0.5.
	TripErrorRate float64
	// Cooldown is how long an open breaker refuses traffic before
	// admitting a half-open probe. Default 1s.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Window <= 0 {
		p.Window = 16
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 4
	}
	if p.TripErrorRate <= 0 || p.TripErrorRate > 1 {
		p.TripErrorRate = 0.5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	return p
}

// CircuitBreaker gates one origin. Safe for concurrent use.
type CircuitBreaker struct {
	pol BreakerPolicy
	now func() time.Time // injectable clock for tests

	mu        sync.Mutex
	state     BreakerState
	samples   []bool // ring buffer of the last Window outcomes (true = success)
	idx, n    int
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	trips     int64
	lastError error

	// Telemetry: transitions are journalled to sink with the path/origin
	// labels, set by setObs. Guarded by mu.
	sink               obs.Sink
	obsPath, obsOrigin string
}

// setObs wires the breaker's transition events to a telemetry sink.
func (b *CircuitBreaker) setObs(sink obs.Sink, path, origin string) {
	b.mu.Lock()
	b.sink = sink
	b.obsPath, b.obsOrigin = path, origin
	b.mu.Unlock()
}

// emitTransition journals a state change observed while b.mu was held.
// Called after unlock so a slow sink never extends the critical section.
func (b *CircuitBreaker) emitTransition(sink obs.Sink, from, to BreakerState, path, origin string) {
	if sink == nil || from == to {
		return
	}
	sink.Emit(obs.NewEvent("breaker.state").WithPath(path).
		WithStr("origin", origin).WithStr("from", from.String()).WithStr("to", to.String()))
}

// NewCircuitBreaker returns a closed breaker under pol (zero value =
// defaults).
func NewCircuitBreaker(pol BreakerPolicy) *CircuitBreaker {
	pol = pol.withDefaults()
	return &CircuitBreaker{
		pol:     pol,
		now:     time.Now,
		samples: make([]bool, pol.Window),
	}
}

// State returns the breaker's current state, applying the open→half-open
// cooldown transition first.
func (b *CircuitBreaker) State() BreakerState {
	b.mu.Lock()
	from := b.state
	b.maybeHalfOpenLocked()
	to := b.state
	sink, path, origin := b.sink, b.obsPath, b.obsOrigin
	b.mu.Unlock()
	b.emitTransition(sink, from, to, path, origin)
	return to
}

// Trips returns how many times the breaker has opened.
func (b *CircuitBreaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// maybeHalfOpenLocked moves an open breaker to half-open once the
// cooldown has elapsed.
func (b *CircuitBreaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.pol.Cooldown {
		b.state = BreakerHalfOpen
		b.probing = false
	}
}

// Allow reports whether a request may be dispatched to this origin. In
// half-open it admits exactly one probe at a time; the probe's outcome
// (RecordSuccess/RecordFailure) decides the next transition.
func (b *CircuitBreaker) Allow() bool {
	b.mu.Lock()
	from := b.state
	b.maybeHalfOpenLocked()
	allowed := false
	switch b.state {
	case BreakerClosed:
		allowed = true
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	to := b.state
	sink, path, origin := b.sink, b.obsPath, b.obsOrigin
	b.mu.Unlock()
	b.emitTransition(sink, from, to, path, origin)
	return allowed
}

// Healthy reports whether the origin is currently dispatchable without
// consuming a probe slot: closed, or half-open with a free probe slot.
func (b *CircuitBreaker) Healthy() bool {
	b.mu.Lock()
	from := b.state
	b.maybeHalfOpenLocked()
	healthy := b.state == BreakerClosed || (b.state == BreakerHalfOpen && !b.probing)
	to := b.state
	sink, path, origin := b.sink, b.obsPath, b.obsOrigin
	b.mu.Unlock()
	b.emitTransition(sink, from, to, path, origin)
	return healthy
}

// RecordSuccess feeds one successful request. In half-open it is the
// probe's verdict: the breaker closes.
func (b *CircuitBreaker) RecordSuccess() {
	b.mu.Lock()
	from := b.state
	b.maybeHalfOpenLocked()
	b.pushLocked(true)
	switch b.state {
	case BreakerHalfOpen:
		b.resetLocked()
	case BreakerClosed:
		b.evaluateLocked()
	}
	to := b.state
	sink, path, origin := b.sink, b.obsPath, b.obsOrigin
	b.mu.Unlock()
	b.emitTransition(sink, from, to, path, origin)
}

// RecordFailure feeds one failed request (I/O error, bad status, failed
// dial, corrupt payload).
func (b *CircuitBreaker) RecordFailure(err error) {
	b.mu.Lock()
	from := b.state
	b.maybeHalfOpenLocked()
	b.lastError = err
	b.pushLocked(false)
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: straight back to open, cooldown restarts.
		b.tripLocked()
	case BreakerClosed:
		b.evaluateLocked()
	}
	to := b.state
	sink, path, origin := b.sink, b.obsPath, b.obsOrigin
	b.mu.Unlock()
	b.emitTransition(sink, from, to, path, origin)
}

// pushLocked appends one outcome to the rolling window.
func (b *CircuitBreaker) pushLocked(ok bool) {
	b.samples[b.idx] = ok
	b.idx = (b.idx + 1) % len(b.samples)
	if b.n < len(b.samples) {
		b.n++
	}
}

// evaluateLocked trips a closed breaker when the windowed error rate
// reaches its threshold.
func (b *CircuitBreaker) evaluateLocked() {
	if b.n < b.pol.MinSamples {
		return
	}
	var fails int
	for _, ok := range b.samples[:b.n] {
		if !ok {
			fails++
		}
	}
	if float64(fails)/float64(b.n) >= b.pol.TripErrorRate {
		b.tripLocked()
	}
}

// tripLocked opens the breaker and starts the cooldown.
func (b *CircuitBreaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.probing = false
	b.trips++
}

// resetLocked closes the breaker and clears the window so stale failures
// cannot immediately re-trip it.
func (b *CircuitBreaker) resetLocked() {
	b.state = BreakerClosed
	b.idx, b.n = 0, 0
	b.probing = false
}
