package netmp

// Deadline-aware hedged segment requests. A Holt-Winters predictor (the
// same estimator the scheduler uses for path throughput, §6) tracks the
// fetcher's per-segment service rate; when a segment's in-flight time
// exceeds HedgePolicy.Factor times the predicted service time — its read
// pace projects a deadline miss — a duplicate request is issued to a
// healthy backup origin of the same path over a fresh connection. The
// first verified result wins and the loser is cancelled (its connection
// closed mid-read); a wasted-byte budget bounds how much duplicate
// traffic a session may spend on hedging. With the chunk deadline near,
// the hedge arms earlier: it never waits past the last instant a backup
// could still make the deadline.

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/obs"
	"mpdash/internal/predict"
)

// HedgePolicy bounds hedged requests. The zero value selects the
// defaults noted on each field; hedging engages only on paths with more
// than one origin.
type HedgePolicy struct {
	// Disabled turns hedging off entirely.
	Disabled bool
	// Factor is the pace multiple that arms a hedge: a segment in flight
	// longer than Factor × the Holt-Winters-predicted service time is
	// hedged. Default 2.
	Factor float64
	// BudgetBytes caps the payload bytes wasted on hedge losers across
	// the fetcher's lifetime; once spent, no further hedges are issued.
	// Default 4 MiB.
	BudgetBytes int64
}

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.Factor <= 0 {
		p.Factor = 2
	}
	if p.BudgetBytes <= 0 {
		p.BudgetBytes = 4 << 20
	}
	return p
}

// hedgeMinDelay floors the hedge arming delay so a noisy first estimate
// cannot hedge instantly.
const hedgeMinDelay = 10 * time.Millisecond

// hedgeState is the fetcher-wide hedging runtime: the pace predictor
// (built by NewFetcherOrigins, guarded by mu) and the session counters —
// hedges issued, won by the backup, losers cancelled, and loser bytes
// wasted (charged against HedgePolicy.BudgetBytes). Safe for concurrent
// use.
type hedgeState struct {
	mu                             sync.Mutex
	hw                             *predict.HoltWinters
	issued, won, cancelled, wasted atomic.Int64
}

// observe feeds one completed segment's service rate into the predictor.
func (h *hedgeState) observe(bytes int64, d time.Duration) {
	if bytes <= 0 || d <= 0 {
		return
	}
	h.mu.Lock()
	h.hw.Observe(float64(bytes) / d.Seconds())
	h.mu.Unlock()
}

// seed warm-starts the predictor at a board-supplied rate (bytes/s)
// with zero trend. A no-op once a real sample exists: local observation
// always beats the population prior.
func (h *hedgeState) seed(rate float64) {
	if rate <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hw.Samples() == 0 {
		h.hw.Seed(rate)
	}
}

// predictedRate returns the one-step-ahead service-rate forecast in
// bytes/s, or 0 before any sample exists.
func (h *hedgeState) predictedRate() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hw.Predict()
}

// predictedServiceTime returns the forecast transfer time for a segment
// of n bytes, or 0 before any sample exists.
func (h *hedgeState) predictedServiceTime(n int64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	rate := h.hw.Predict()
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(n) / rate * float64(time.Second))
}

// noteCancelled records one cancelled loser and its wasted partial bytes.
func (h *hedgeState) noteCancelled(wastedBytes int64) {
	h.cancelled.Add(1)
	h.wasted.Add(wastedBytes)
}

// noteWasted records loser bytes that were spent without a cancellation
// (the loser failed on its own).
func (h *hedgeState) noteWasted(wastedBytes int64) { h.wasted.Add(wastedBytes) }

// snapshot returns the cumulative hedge counters.
func (h *hedgeState) snapshot() (issued, won, cancelled, wasted int64) {
	return h.issued.Load(), h.won.Load(), h.cancelled.Load(), h.wasted.Load()
}

// hedgeDelay computes how long to let the primary attempt run before
// arming the hedge: Factor × the predicted service time (half the I/O
// timeout before any sample exists), floored at hedgeMinDelay — and,
// deadline permitting, never past the last instant a backup fetch could
// still finish inside the chunk's α·D window.
func (f *Fetcher) hedgeDelay(pol HedgePolicy, retry RetryPolicy, segBytes int64, dlAt time.Time) time.Duration {
	predicted := f.hedge.predictedServiceTime(segBytes)
	if predicted <= 0 {
		predicted = retry.IOTimeout / 2
	}
	delay := time.Duration(pol.Factor * float64(predicted))
	if !dlAt.IsZero() {
		if latest := dlAt.Sub(f.clk.now()) - predicted; latest < delay {
			delay = latest
		}
	}
	if delay < hedgeMinDelay {
		delay = hedgeMinDelay
	}
	return delay
}

// segOutcome is one side of a hedge race.
type segOutcome struct {
	n     int64
	err   error
	hedge bool
}

// hedgeBackup returns the origin a hedge of pc's claimed run of n would
// go to, or nil: only a lone segment hedges, and only while hedging is on,
// affordable and has a healthy backup origin. A cache-hot chunk's slow
// first bytes are the edge's singleflight fill; a duplicate request would
// join that fill, not beat it, so hedging is suppressed above the hot
// threshold.
func (f *Fetcher) hedgeBackup(pc *pathConn, n int) *origin {
	if n != 1 || f.Hedge.Disabled || f.cacheHot(f.job.index) || f.hedge.wasted.Load() >= f.Hedge.withDefaults().BudgetBytes {
		return nil
	}
	if b, ok := pc.set.backup(); ok {
		return b
	}
	return nil
}

// raceHedge fetches the lone claimed segment seg on pc as a race: the
// supervised attempts (held, so they settle nothing) against a one-shot
// duplicate to the backup origin, issued once the pace projects a miss.
// The winner alone is settled in the ledger and observed by the predictor,
// start to finish, and the loser's bytes are charged to the hedge budget.
// When both fail it returns the supervised side's error, with pc.owed as
// supervise left it, so the ledger sees exactly an unhedged failure.
func (f *Fetcher) raceHedge(pc *pathConn, seg int, backup *origin) error {
	j := &f.job
	start := f.clk.now()
	resCh := make(chan segOutcome, 2)
	go func() {
		n, err := f.supervise(pc, seg, 1, true)
		resCh <- segOutcome{n: n, err: err}
	}()
	from, to := j.segRange(seg)
	delay := f.hedgeDelay(f.Hedge.withDefaults(), j.pol, to-from+1, j.dlAt)
	armCh, armTimer := SharedWheel().After(delay)
	var win segOutcome
	select {
	case win = <-resCh:
		// The primary finished before the hedge armed — the common case.
		armTimer.Stop()
	case <-armCh:
		win = f.hedgeAgainst(pc, backup, delay, from, to, resCh)
	}
	if win.err != nil {
		return win.err
	}
	pc.owed = pc.owed[:0]
	f.st.complete(pc == f.paths[0], win.n)
	f.observeSegRate(win.n, f.clk.now().Sub(start))
	return nil
}

// hedgeAgainst issues the duplicate of [from, to] to the backup origin
// while pc's supervised attempt, which reports on resCh, is in flight, and
// returns the race's outcome once both sides have: the first verified
// result, or the supervised side's failure when neither verified.
func (f *Fetcher) hedgeAgainst(pc *pathConn, backup *origin, delay time.Duration, from, to int64, resCh chan segOutcome) segOutcome {
	j := &f.job
	f.hedge.issued.Add(1)
	f.emitHedge(obs.NewEvent("hedge.arm").WithPath(pc.name).
		WithStr("origin", backup.addr).WithNum("delay_s", delay.Seconds()))
	hsp := f.curTrace().StartSpan(obs.CatHedge, "hedge")
	hsp.SetPath(pc.name)
	hsp.SetStr("origin", backup.addr)
	defer hsp.End()
	hedgeCancel := make(chan struct{})
	go func() {
		n, err := f.hedgeFetch(backup, j.pol, j.index, j.level, from, to, hedgeCancel)
		resCh <- segOutcome{n: n, err: err, hedge: true}
	}()

	first := <-resCh
	if first.err == nil && !first.hedge {
		// Primary won: cancel the hedge and drain it.
		close(hedgeCancel)
		second := <-resCh
		f.hedge.noteCancelled(second.n)
		f.emitHedge(obs.NewEvent("hedge.cancel").WithPath(pc.name).
			WithNum("wasted_bytes", float64(second.n)))
		return first
	}
	if first.err == nil {
		// Hedge won: cancel the supervised attempt (close its conn; the
		// supervisor sees the flag and returns errHedgeCancelled without
		// charging a fault), drain it, and restore the path's connection
		// for the next segment.
		pc.cancelForHedge()
		second := <-resCh
		f.hedge.won.Add(1)
		f.hedge.noteCancelled(second.n)
		f.emitHedge(obs.NewEvent("hedge.win").WithPath(pc.name).
			WithNum("wasted_bytes", float64(second.n)))
		if !pc.isDown() {
			pc.redial(j.pol) // best effort; a failure marks the path down
		}
		return first
	}
	// First finisher failed; the other side may still deliver.
	second := <-resCh
	if second.err == nil {
		if second.hedge {
			f.hedge.won.Add(1)
			f.emitHedge(obs.NewEvent("hedge.win").WithPath(pc.name).
				WithNum("wasted_bytes", float64(first.n)))
		}
		f.hedge.noteWasted(first.n)
		return second
	}
	// Both failed: charge the hedge side's partial bytes to the budget
	// and surface the supervised attempt's error so the ledger requeue
	// semantics are exactly those of the unhedged path.
	sup, hed := first, second
	if first.hedge {
		sup, hed = second, first
	}
	f.hedge.noteWasted(hed.n)
	f.emitHedge(obs.NewEvent("hedge.lose").WithPath(pc.name).
		WithNum("wasted_bytes", float64(hed.n)))
	return sup
}

// emitHedge journals one hedge-race event through the fetcher's sink.
func (f *Fetcher) emitHedge(e obs.Event) {
	if fo := f.obsHandles(); fo != nil && fo.sink != nil {
		fo.sink.Emit(e)
	}
}

// hedgeFetch performs the one-shot duplicate request on a fresh
// connection to the backup origin. The outcome feeds the backup's
// circuit breaker; closing cancel aborts the transfer mid-read.
func (f *Fetcher) hedgeFetch(o *origin, pol RetryPolicy, index, level int, from, to int64, cancel <-chan struct{}) (int64, error) {
	conn, err := net.DialTimeout("tcp", o.addr, pol.IOTimeout)
	if err != nil {
		o.breaker.RecordFailure(err)
		return 0, err
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-cancel:
			conn.Close()
		case <-done:
		}
	}()
	defer conn.Close()
	hc := &pathConn{name: "hedge", conn: conn, r: bufio.NewReader(conn)}
	hc.req = AppendRangeRequest(nil, f.Video.Levels[level].ID, index, from, to)
	var n int64
	verified, tw := false, f.clk.now()
	if err = f.writeRequests(hc); err == nil {
		n, verified, err = f.readRange(hc, index, level, from, to-from+1, tw)
	}
	if err == nil && !verified {
		err = errCorruptPayload
	}
	o.recordOutcome(err)
	return n, err
}
