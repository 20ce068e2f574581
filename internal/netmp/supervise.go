package netmp

// Path supervision: the fault-tolerance layer under the dual-socket
// fetcher. Every range request runs under an I/O deadline; a transient
// failure (reset, stall, premature close, corrupted payload, server
// 503) is absorbed by retrying the segment — redialling the path with
// exponential backoff and jitter when the connection's framing state is
// unknown — and a path whose redial budget is exhausted is declared down
// for the session. The fetcher then runs in degraded single-path mode on
// whichever path survives: if the preferred path dies, the secondary is
// forced on unconditionally (inverting Algorithm 1's cost preference to
// honor the deadline) rather than aborting the stream.
//
// Each path dials through a ranked OriginSet (origin.go): request and
// dial outcomes feed the current origin's circuit breaker, and a redial
// picks the highest-ranked origin whose breaker admits traffic — so an
// origin that trips fails over without spending the path's life, and the
// path only dies when no origin can carry it.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpdash/internal/obs"
)

// PathState is a supervised path's health.
type PathState int32

const (
	// PathUp: the path is connected and its last request succeeded.
	PathUp PathState = iota
	// PathDegraded: the path recently faulted and is retrying/redialling.
	PathDegraded
	// PathDown: the redial budget is exhausted (or a fatal protocol error
	// occurred); the path is out for the rest of the session.
	PathDown
)

func (ps PathState) String() string {
	switch ps {
	case PathUp:
		return "up"
	case PathDegraded:
		return "degraded"
	case PathDown:
		return "down"
	}
	return fmt.Sprintf("PathState(%d)", int32(ps))
}

// RetryPolicy bounds the supervisor's recovery behaviour. The zero value
// selects the defaults noted on each field.
type RetryPolicy struct {
	// IOTimeout is the per-I/O-operation deadline on a range request
	// (write, status/header read, and each body block read). Default 2s.
	IOTimeout time.Duration
	// BaseBackoff is the first retry/redial delay; it doubles per
	// consecutive failure. Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 2s.
	MaxBackoff time.Duration
	// MaxRedials is the number of consecutive failed reconnect attempts
	// before the path is declared down. Default 5.
	MaxRedials int
	// SegmentBudget is how many times one path attempts a segment before
	// requeueing it to the ledger for the other path. Default 3.
	SegmentBudget int
	// RequeueBudget is how many times a segment may be requeued in total
	// before the whole chunk fails with ErrChunkExhausted. Default 6.
	RequeueBudget int
	// Seed seeds the jitter generator (0 = 1) for reproducible backoff
	// schedules.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.IOTimeout <= 0 {
		p.IOTimeout = 2 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.MaxRedials <= 0 {
		p.MaxRedials = 5
	}
	if p.SegmentBudget <= 0 {
		p.SegmentBudget = 3
	}
	if p.RequeueBudget <= 0 {
		p.RequeueBudget = 6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoff returns the delay before the n-th (0-based) consecutive retry,
// exponential, capped at MaxBackoff, plus a uniform random fifth of it on
// top to decorrelate the two paths' retries.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.BaseBackoff << uint(n)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d + time.Duration(rng.Float64()*0.2*float64(d))
}

// PathStats is a snapshot of one supervised path's health counters.
type PathStats struct {
	Name  string
	State PathState
	// Origin is the address of the origin currently carrying the path.
	Origin string
	// Breaker is the current origin's circuit-breaker state.
	Breaker BreakerState
	// Failovers counts origin switches on this path.
	Failovers int64
	// Origins snapshots every ranked origin's health.
	Origins []OriginStats
	// Retries counts failed range-request attempts that were absorbed
	// (retried or requeued) rather than surfaced as errors.
	Retries int64
	// Redials counts reconnect attempts, successful or not.
	Redials int64
	// Reconnects counts redials that produced a live connection.
	Reconnects int64
	// Bytes counts verified payload bytes delivered by this path.
	Bytes int64
	// WastedBytes counts payload bytes discarded from failed or
	// corrupted attempts.
	WastedBytes int64
	// DownFor is how long the path has been down (zero while it lives).
	DownFor time.Duration
}

// Supervision errors. errSegmentFailed and errPathDown steer the worker
// loops; ErrChunkExhausted and ErrAllPathsDown surface to callers.
var (
	errSegmentFailed = errors.New("netmp: segment retry budget exhausted on this path")
	errPathDown      = errors.New("netmp: path down")
	// errBadStatus marks a non-2xx response — a protocol-level (fatal)
	// failure that no amount of redialling will fix.
	errBadStatus = errors.New("netmp: unexpected status")
	// errServerBusy marks a 503 overload rejection: transient, worth a
	// backoff and (via the breaker) a failover to another origin.
	errServerBusy = errors.New("netmp: server busy (503)")
	// errCorruptPayload marks a response whose bytes failed verification;
	// it feeds the origin breaker (the attempt itself is retried on the
	// intact connection).
	errCorruptPayload = errors.New("netmp: corrupt payload")
	// errHedgeCancelled marks a supervised attempt aborted because its
	// hedge twin already delivered the segment — not a fault.
	errHedgeCancelled = errors.New("netmp: attempt cancelled by winning hedge")

	// ErrChunkExhausted reports a chunk whose segments kept failing on
	// every live path until the requeue budget ran out. The Streamer
	// responds by refetching the chunk once at the lowest level.
	ErrChunkExhausted = errors.New("netmp: chunk retry budget exhausted")
	// ErrAllPathsDown reports that no path remains to carry traffic.
	ErrAllPathsDown = errors.New("netmp: all paths down")
)

// isTransient classifies a request error: anything I/O-shaped (reset,
// timeout, EOF, broken pipe) or a 503 overload rejection is worth a
// redial; any other parsed-but-wrong HTTP status is a protocol mismatch
// and fatal for the path.
func isTransient(err error) bool {
	return !errors.Is(err, errBadStatus) || errors.Is(err, errServerBusy)
}

type pathConn struct {
	name   string
	set    *OriginSet    // ranked origins with per-origin breakers
	conn   net.Conn      // owned by the single worker goroutine using the path
	r      *bufio.Reader // conn's reader: own, or a window lent to a pipelined attempt
	own    *bufio.Reader // the path's 4 KiB reader; owner-goroutine only
	req    []byte        // request-head scratch; owner-goroutine only
	owed   []int         // the supervised run's unsettled segments; owner-goroutine only
	rng    *rand.Rand    // jitter; owner-goroutine only
	closed bool          // set by Close; owner/Close coordination via mu
	clk    Clock         // injectable wall clock (nil = time.Now)
	sink   obs.Sink      // telemetry journal (nil = off)
	tref   *traceRef     // in-flight chunk's span trace (nil = off); set at construction

	mu          sync.Mutex // guards the stats + state below
	state       PathState
	retries     int64
	redials     int64
	reconnects  int64
	bytes       int64
	wasted      int64
	consecFails int // consecutive failed redials
	downAt      time.Time
	cancelled   bool // a winning hedge closed the conn under us
}

// dialOrigins dials a path through a ranked origin list: origins are
// tried in preference order, dial failures feed their breakers, and the
// first reachable origin carries the connection.
func dialOrigins(name string, addrs []string, pol BreakerPolicy) (*pathConn, error) {
	set, err := NewOriginSet(name, addrs, pol)
	if err != nil {
		return nil, err
	}
	pc := &pathConn{name: name, set: set}
	var lastErr error
	tried := make(map[*origin]bool, len(addrs))
	for range addrs {
		o, ok := set.pick()
		if !ok || tried[o] {
			// The breakers offer nothing new — walk to the best untried
			// origin so the initial dial covers each address once.
			o, ok = set.pickSkip(tried)
		}
		if !ok {
			break
		}
		tried[o] = true
		conn, err := net.DialTimeout("tcp", o.addr, 5*time.Second)
		if err == nil {
			pc.conn = conn
			pc.own = bufio.NewReader(conn)
			pc.r = pc.own
			return pc, nil
		}
		o.breaker.RecordFailure(err)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no origin admitted the dial")
	}
	return nil, fmt.Errorf("netmp: dial %s (%s): %w", name, strings.Join(addrs, ","), lastErr)
}

func (pc *pathConn) isDown() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.state == PathDown
}

// setClock injects the path's wall clock (nil = time.Now).
func (pc *pathConn) setClock(c Clock) {
	pc.mu.Lock()
	pc.clk = c
	pc.mu.Unlock()
}

// setSink wires the path's journal events to a telemetry sink.
func (pc *pathConn) setSink(sink obs.Sink) {
	pc.mu.Lock()
	pc.sink = sink
	pc.mu.Unlock()
}

// obsSink returns the path's telemetry sink (nil = off) under the lock,
// so Instrument may race with in-flight fetches without tripping -race.
func (pc *pathConn) obsSink() obs.Sink {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.sink
}

// emitFault journals one absorbed request fault.
func (pc *pathConn) emitFault(err error) {
	if sink := pc.obsSink(); sink != nil {
		sink.Emit(obs.NewEvent("fetch.fault").WithPath(pc.name).WithStr("error", err.Error()))
	}
}

// emitState journals a path state transition.
func (pc *pathConn) emitState(to PathState) {
	if sink := pc.obsSink(); sink != nil {
		sink.Emit(obs.NewEvent("path.state").WithPath(pc.name).WithStr("state", to.String()))
	}
}

// noteSuccess records n verified payload bytes and restores the path to
// healthy.
func (pc *pathConn) noteSuccess(n int64) {
	pc.mu.Lock()
	pc.bytes += n
	pc.consecFails = 0
	recovered := pc.state == PathDegraded
	if pc.state != PathDown {
		pc.state = PathUp
	}
	pc.mu.Unlock()
	if recovered {
		pc.emitState(PathUp)
	}
}

// noteFault records one absorbed failure with wasted bytes.
func (pc *pathConn) noteFault(wasted int64) {
	pc.mu.Lock()
	pc.retries++
	pc.wasted += wasted
	degraded := pc.state == PathUp
	if pc.state != PathDown {
		pc.state = PathDegraded
	}
	pc.mu.Unlock()
	if degraded {
		pc.emitState(PathDegraded)
	}
}

// chargeFault books one failed attempt on pc: a retry with its wasted
// bytes, breaker fuel for the origin o that served it, and a fetch.fault.
func (pc *pathConn) chargeFault(o *origin, wasted int64, fault error) {
	pc.noteFault(wasted)
	o.recordOutcome(fault)
	pc.emitFault(fault)
}

// markDown declares the path dead for the session.
func (pc *pathConn) markDown() {
	pc.mu.Lock()
	died := pc.state != PathDown
	if died {
		pc.state = PathDown
		pc.downAt = pc.clk.now()
	}
	pc.mu.Unlock()
	if died {
		pc.emitState(PathDown)
	}
}

// cancelForHedge aborts the path's in-flight request because its hedge
// twin already delivered the segment: the connection is closed (framing
// mid-body is unrecoverable) and the flag tells the supervised loop the
// resulting error is a cancellation, not a fault.
func (pc *pathConn) cancelForHedge() {
	pc.mu.Lock()
	pc.cancelled = true
	conn := pc.conn
	pc.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// takeCancelled consumes a pending hedge cancellation.
func (pc *pathConn) takeCancelled() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	was := pc.cancelled
	pc.cancelled = false
	return was
}

func (pc *pathConn) stats() PathStats {
	pc.mu.Lock()
	st := PathStats{
		Name:        pc.name,
		State:       pc.state,
		Retries:     pc.retries,
		Redials:     pc.redials,
		Reconnects:  pc.reconnects,
		Bytes:       pc.bytes,
		WastedBytes: pc.wasted,
	}
	if pc.state == PathDown && !pc.downAt.IsZero() {
		st.DownFor = pc.clk.now().Sub(pc.downAt)
	}
	pc.mu.Unlock()
	if pc.set != nil {
		st.Origin = pc.set.Current()
		st.Breaker = pc.set.CurrentState()
		st.Failovers = pc.set.Failovers()
		st.Origins = pc.set.Stats()
	}
	return st
}

// counters snapshots the cumulative fault counters — the per-fetch
// delta basis.
func (pc *pathConn) counters() (retries, redials, wasted int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.retries, pc.redials, pc.wasted
}

func (pc *pathConn) jitterRNG(pol RetryPolicy) *rand.Rand {
	if pc.rng == nil {
		var h int64
		for _, c := range pc.name {
			h = h*131 + int64(c)
		}
		pc.rng = rand.New(rand.NewSource(pol.Seed ^ h))
	}
	return pc.rng
}

// redial replaces the path's connection after a transient failure,
// backing off exponentially between attempts. Each attempt asks the
// origin set for the highest-ranked origin whose breaker admits traffic
// — failing over away from a tripped origin, and back once it recovers.
// It returns errPathDown once MaxRedials consecutive attempts fail.
// Owner-goroutine only.
func (pc *pathConn) redial(pol RetryPolicy) error {
	pc.conn.Close()
	rng := pc.jitterRNG(pol)
	// One span covers the whole redial loop — dial attempts, origin
	// failover and the backoff sleeps between them — so the critical-path
	// walker charges connection-recovery time to "redial" wholesale.
	rsp := pc.tref.load().StartSpan(obs.CatRedial, "redial")
	rsp.SetPath(pc.name)
	defer rsp.End()
	for {
		pc.mu.Lock()
		if pc.closed || pc.state == PathDown {
			pc.mu.Unlock()
			return errPathDown
		}
		attempt := pc.consecFails
		pc.redials++
		pc.mu.Unlock()

		o, ok := pc.set.pick()
		var err error
		if !ok {
			err = fmt.Errorf("netmp: %s: every origin breaker open", pc.name)
		} else {
			var conn net.Conn
			conn, err = net.DialTimeout("tcp", o.addr, pol.IOTimeout)
			pc.emitRedial(o.addr, err == nil, attempt)
			if err == nil {
				// Swap the connection under the mutex: the doom test
				// may call cancelForHedge concurrently, and it must see
				// either the old conn (already closed) or the new one —
				// never a torn pair. A cancel that raced the swap is
				// dropped with the old conn; the worker winds down at the
				// ledger's doomed check instead.
				pc.mu.Lock()
				pc.conn = conn
				pc.unlend(true)
				pc.own.Reset(conn)
				pc.reconnects++
				pc.consecFails = 0
				pc.cancelled = false
				pc.mu.Unlock()
				rsp.SetStr("origin", o.addr)
				return nil
			}
			o.breaker.RecordFailure(err)
		}
		pc.mu.Lock()
		pc.consecFails++
		exhausted := pc.consecFails >= pol.MaxRedials
		pc.mu.Unlock()
		if exhausted {
			pc.markDown()
			return fmt.Errorf("%w: %s after %d redials: %v", errPathDown, pc.name, pol.MaxRedials, err)
		}
		time.Sleep(pol.backoff(attempt, rng))
	}
}

// emitRedial journals one reconnect attempt.
func (pc *pathConn) emitRedial(origin string, ok bool, attempt int) {
	if sink := pc.obsSink(); sink != nil {
		sink.Emit(obs.NewEvent("path.redial").WithPath(pc.name).
			WithStr("origin", origin).WithStr("ok", strconv.FormatBool(ok)).
			WithNum("attempt", float64(attempt)))
	}
}

// close tears down the path's connection (session shutdown).
func (pc *pathConn) close() error {
	pc.mu.Lock()
	pc.closed = true
	pc.mu.Unlock()
	return pc.conn.Close()
}
