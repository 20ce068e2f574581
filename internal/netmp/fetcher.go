package netmp

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
	"mpdash/internal/predict"
)

// DefaultSegmentSize is the range granularity of the fetcher.
const DefaultSegmentSize = 32 * 1024

// controllerTick is the cadence at which the secondary-path controller
// re-evaluates deadline pressure while standing by; pressureWarmup is the
// minimum elapsed time before the first throughput-based evaluation (no
// sample exists earlier).
const (
	controllerTick  = 20 * time.Millisecond
	pressureWarmup  = controllerTick
	ledgerIdleSleep = time.Millisecond
)

// Fetcher downloads chunks over N TCP connections (one per network path)
// with MP-DASH's deadline logic: the preferred connection pulls ranges
// from the front of the chunk; secondaries are engaged, cheapest first,
// to pull from the back only while the measured throughput cannot finish
// the remainder within α·D, and each stands down as soon as the cheaper
// set suffices again (Algorithm 1 lines 16–21 in userspace, decided by
// core.Engage). Every path runs under supervision (see supervise.go):
// transient I/O faults are retried through redials with backoff, failed
// segments are requeued to the surviving paths, and the fetcher keeps
// working in degraded mode — on any non-empty subset of paths — when
// paths die for good.
type Fetcher struct {
	Video *dash.Video
	// Sizes optionally overrides the video's generated chunk sizes with
	// explicit per-[level][chunk] byte counts (as parsed from a remote
	// manifest, whose sizes are authoritative).
	Sizes [][]int64
	// Alpha is the safety factor (default 1).
	Alpha float64
	// SegmentSize is the range-request granularity.
	SegmentSize int64
	// Retry bounds the fault-tolerance behaviour; the zero value selects
	// the defaults documented on RetryPolicy.
	Retry RetryPolicy
	// Hedge bounds deadline-aware hedged requests (hedge.go); the zero
	// value selects the defaults documented on HedgePolicy. Hedging
	// engages only on paths built with multiple origins.
	Hedge HedgePolicy
	// Abort bounds doomed-chunk aborts (abort.go); the zero value leaves
	// the mechanism off. Aborts engage only above the lowest rendition —
	// with nothing to downgrade to, a doomed level-0 chunk rides out.
	Abort AbortPolicy
	// CacheHint bounds how edge X-MPDash-Cache headers damp the engage
	// test and suppress hedging (cachehint.go); the zero value selects
	// the defaults, and a session that never sees the header behaves
	// exactly as before.
	CacheHint CacheHintPolicy

	// paths are the supervised connections: paths[0] is the preferred
	// path, the rest are secondaries in ascending cost order.
	paths []*pathConn
	hedge hedgeState
	abort abortState
	// board is the optional congestion-board attachment (board.go); set
	// by JoinBoard before fetching, nil when flying solo.
	board *boardLink

	// clk supplies wall time for deadlines, durations, and telemetry
	// timestamps (nil = time.Now); set with SetClock before fetching.
	clk Clock

	// obsMu guards fobs; the published *fetcherObs itself is immutable,
	// so one lock acquisition per read suffices (see telemetry.go).
	obsMu sync.Mutex
	fobs  *fetcherObs

	fb fbTrack // first-byte span tracking for the in-flight chunk

	// chint is the cache-hint memory fed by X-MPDash-Cache response
	// headers (cachehint.go).
	chint cacheHintState

	// tref names the in-flight chunk's span trace (tracing.go); shared
	// with every pathConn so the supervisor can attach redial spans.
	tref traceRef
}

// SetClock injects the fetcher's wall clock (nil restores time.Now),
// propagating it to every supervised path. Call before fetching; see the
// Clock docs for the fixed-clock determinism pattern.
func (f *Fetcher) SetClock(c Clock) {
	f.clk = c
	for _, pc := range f.paths {
		pc.setClock(c)
	}
}

// obsHandles returns the published telemetry handles (nil = off).
func (f *Fetcher) obsHandles() *fetcherObs {
	f.obsMu.Lock()
	defer f.obsMu.Unlock()
	return f.fobs
}

// chunkSize returns the authoritative size of (index, level).
func (f *Fetcher) chunkSize(index, level int) int64 {
	if f.Sizes != nil {
		return f.Sizes[level][index]
	}
	return f.Video.ChunkSize(index, level)
}

// NewFetcher dials the preferred path plus any number of secondaries
// (ascending cost order), one origin each.
func NewFetcher(video *dash.Video, primaryAddr string, secondaryAddrs ...string) (*Fetcher, error) {
	paths := [][]string{{primaryAddr}}
	for _, a := range secondaryAddrs {
		paths = append(paths, []string{a})
	}
	return NewFetcherOrigins(video, BreakerPolicy{}, paths...)
}

// NewFetcherOrigins dials each path through a ranked origin set: paths[0]
// is the preferred path, the rest secondaries in ascending cost order;
// each slice lists a path's origin addresses in preference order, each
// gated by a circuit breaker under pol (zero value = defaults). The
// initial dial succeeds on the first reachable origin of each path.
func NewFetcherOrigins(video *dash.Video, pol BreakerPolicy, paths ...[]string) (*Fetcher, error) {
	if err := video.Validate(); err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("netmp: at least one path required")
	}
	f := &Fetcher{Video: video, Alpha: 1, SegmentSize: DefaultSegmentSize}
	f.hedge.hw = predict.NewDefaultHoltWinters()
	for i, origins := range paths {
		name := "primary"
		if i > 0 {
			name = "secondary"
		}
		if i > 1 {
			name += "-" + strconv.Itoa(i)
		}
		pc, err := dialOrigins(name, origins, pol)
		if err != nil {
			f.Close()
			return nil, err
		}
		pc.tref = &f.tref
		f.paths = append(f.paths, pc)
	}
	return f, nil
}

// Close tears down every connection, reporting every failure.
func (f *Fetcher) Close() error {
	var errs []error
	for _, pc := range f.paths {
		errs = append(errs, pc.close())
	}
	return errors.Join(errs...)
}

// PathStats returns health snapshots for the preferred path and then
// every secondary in cost order.
func (f *Fetcher) PathStats() []PathStats {
	out := make([]PathStats, len(f.paths))
	for i, pc := range f.paths {
		out[i] = pc.stats()
	}
	return out
}

// DegradedFor returns the total time paths have spent down — the
// session's degraded interval.
func (f *Fetcher) DegradedFor() time.Duration {
	var d time.Duration
	for _, ps := range f.PathStats() {
		d += ps.DownFor
	}
	return d
}

// faultCounters sums the cumulative fault counters (and origin switches)
// across every path — the per-fetch delta basis.
func (f *Fetcher) faultCounters() (retries, redials, wasted, failovers int64) {
	for _, pc := range f.paths {
		ret, red, waste := pc.counters()
		retries += ret
		redials += red
		wasted += waste
		failovers += pc.set.Failovers()
	}
	return
}

// FetchResult reports one chunk download.
type FetchResult struct {
	Size           int64
	PrimaryBytes   int64
	SecondaryBytes int64
	Duration       time.Duration
	// MissedBy is zero when the deadline was met.
	MissedBy time.Duration
	// Verified is true when every received byte matched the expected
	// deterministic payload (reassembly correctness). Corrupted attempts
	// are discarded and re-fetched, so a successful fetch is verified.
	Verified bool

	// Retries counts failed range-request attempts absorbed by the
	// supervisor during this fetch.
	Retries int64
	// Redials counts reconnect attempts (successful or not).
	Redials int64
	// Requeued counts segments handed back to the ledger after one
	// path's per-segment budget ran out, for the other path to complete.
	Requeued int64
	// WastedBytes counts payload bytes discarded from failed or
	// corrupted attempts.
	WastedBytes int64
	// Degraded is true when part of the chunk was fetched with a path
	// down (single-path mode).
	Degraded bool
	// AbortedDoomed is true when the fetch was abandoned mid-flight
	// because even best-case all-path delivery could not meet the
	// deadline (the ErrChunkDoomed outcome). The partial byte counters
	// report what the abort discarded.
	AbortedDoomed bool

	// Failovers counts origin switches across all paths during this
	// fetch (a tripped breaker re-routing the path's connection).
	Failovers int64
	// HedgesIssued counts duplicate requests launched to backup origins.
	HedgesIssued int64
	// HedgesWon counts segments delivered by the hedge rather than the
	// primary attempt.
	HedgesWon int64
	// HedgesCancelled counts hedge-race losers whose transfers were
	// aborted.
	HedgesCancelled int64
	// HedgeWastedBytes counts payload bytes spent on hedge losers,
	// charged against HedgePolicy.BudgetBytes.
	HedgeWastedBytes int64
}

// fetchState is the shared segment ledger. Segments move from unclaimed
// to in-flight to done; a segment whose path fails is requeued so the
// surviving path can retake it. Completion means done == total, not an
// empty queue — in-flight segments may yet fail back into the queue.
type fetchState struct {
	mu            sync.Mutex
	front         int // next fresh segment from the start
	back          int // last fresh segment at the end
	requeued      []requeuedSeg
	requeues      map[int]int // per-segment requeue counts
	inflight      int
	done          int
	total         int
	failed        bool // requeue budget blown: abort the chunk
	doomed        bool // predicted deadline miss: abandon, downgrade
	requeueBudget int
	requeueCount  int64
}

type requeuedSeg struct {
	seg int
	by  *pathConn // the path that failed it
}

func newFetchState(total, requeueBudget int) *fetchState {
	return &fetchState{front: 0, back: total - 1, total: total, requeueBudget: requeueBudget}
}

// takeRequeuedLocked pops a requeued segment for pc, preferring segments
// failed by a different path; retrying your own failed segment only makes
// sense once no fresh work remains (selfOK).
func (st *fetchState) takeRequeuedLocked(pc *pathConn, selfOK bool) (int, bool) {
	for i, rq := range st.requeued {
		if rq.by != pc || selfOK {
			st.requeued = append(st.requeued[:i], st.requeued[i+1:]...)
			st.inflight++
			return rq.seg, true
		}
	}
	return 0, false
}

// claimFrontFor hands pc the next segment from the start, or -1 when
// nothing is claimable right now.
func (st *fetchState) claimFrontFor(pc *pathConn) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed || st.doomed {
		return -1
	}
	if seg, ok := st.takeRequeuedLocked(pc, false); ok {
		return seg
	}
	if st.front <= st.back {
		seg := st.front
		st.front++
		st.inflight++
		return seg
	}
	if seg, ok := st.takeRequeuedLocked(pc, true); ok {
		return seg
	}
	return -1
}

// claimBackFor hands pc the last segment, or -1.
func (st *fetchState) claimBackFor(pc *pathConn) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed || st.doomed {
		return -1
	}
	if st.front <= st.back {
		seg := st.back
		st.back--
		st.inflight++
		return seg
	}
	if seg, ok := st.takeRequeuedLocked(pc, false); ok {
		return seg
	}
	if seg, ok := st.takeRequeuedLocked(pc, true); ok {
		return seg
	}
	return -1
}

// complete marks a claimed segment fetched and verified.
func (st *fetchState) complete() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	st.done++
}

// requeue returns a claimed segment to the ledger after pc failed it.
// Blowing the per-segment requeue budget aborts the whole chunk.
func (st *fetchState) requeue(seg int, by *pathConn) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	st.requeueCount++
	if st.requeues == nil {
		st.requeues = make(map[int]int)
	}
	st.requeues[seg]++
	if st.requeues[seg] > st.requeueBudget {
		st.failed = true
		return
	}
	st.requeued = append(st.requeued, requeuedSeg{seg: seg, by: by})
}

// finished reports whether every segment has been fetched.
func (st *fetchState) finished() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done == st.total
}

// aborted reports whether the chunk's requeue budget is blown.
func (st *fetchState) aborted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// stopped reports whether the workers should wind down: every segment
// fetched, the requeue budget blown, or the chunk abandoned as doomed.
func (st *fetchState) stopped() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done == st.total || st.failed || st.doomed
}

// markDoomed flags the chunk as a predicted deadline miss: no further
// segments will be claimed and the workers wind down.
func (st *fetchState) markDoomed() {
	st.mu.Lock()
	st.doomed = true
	st.mu.Unlock()
}

// isDoomed reports whether the chunk was abandoned as doomed.
func (st *fetchState) isDoomed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.doomed
}

// release returns a claimed segment without completing or requeueing it
// — the abort path: the ledger forgets the claim, spending no requeue
// budget and charging no fault.
func (st *fetchState) release() {
	st.mu.Lock()
	st.inflight--
	st.mu.Unlock()
}

// doneSegments reports how many segments have completed and verified.
func (st *fetchState) doneSegments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done
}

// remainingSegments reports how many segments are still unclaimed
// (including requeued ones awaiting a new owner).
func (st *fetchState) remainingSegments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.back - st.front + 1
	if n < 0 {
		n = 0
	}
	return n + len(st.requeued)
}

// engageCount is the socket stack's driver around core.Engage. It gathers
// the kernel's inputs — what is left of the α·D window and, as every
// path's estimate, the chunk's cumulative mean rate (bytes/s; there is no
// sample before pressureWarmup, so nothing engages on rate until then) —
// and returns how many leading secondaries the kernel turns on, with the
// rate and window that drove the answer (journalled with each toggle).
func engageCount(elapsed, d time.Duration, alpha float64, got int64, need float64, paths int) (on int, rate, windowLeft float64) {
	windowLeft = alpha*d.Seconds() - elapsed.Seconds()
	if windowLeft > 0 {
		if elapsed < pressureWarmup {
			return 0, 0, windowLeft
		}
		rate = float64(got) / elapsed.Seconds()
	}
	var buf [8]float64
	est := buf[:0]
	for i := 0; i < paths; i++ {
		est = append(est, rate)
	}
	return core.Engage(need, windowLeft, est), rate, windowLeft
}

// FetchChunk downloads chunk (index, level) with deadline window d. It
// survives transient path faults (retry + redial + requeue) and runs on
// whatever subset of paths is alive; it fails only when every path dies
// (ErrAllPathsDown) or a segment exhausts its requeue budget on every
// live path (ErrChunkExhausted).
func (f *Fetcher) FetchChunk(index, level int, d time.Duration) (*FetchResult, error) {
	size := f.chunkSize(index, level)
	pol := f.Retry.withDefaults()
	segSize := f.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if f.livePaths() == 0 {
		return nil, ErrAllPathsDown
	}
	nSegs := int((size + segSize - 1) / segSize)
	st := newFetchState(nSegs, pol.RequeueBudget)
	alpha := f.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}

	start := f.clk.now()
	dlAt := start.Add(time.Duration(alpha * float64(d)))
	f.chint.beginChunk(index)
	res := &FetchResult{Size: size, Verified: true}
	fo := f.obsHandles()
	if fo != nil {
		fo.emitChunkStart(index, level, size, d, nSegs)
		f.fb.begin(start, index, level)
		defer f.fb.end()
	}
	ctr := f.curTrace()
	fsp := ctr.StartSpan(obs.CatFetch, "fetch")
	fsp.SetNum("size", float64(size))
	fsp.SetNum("segs", float64(nSegs))
	defer fsp.End()
	ret0, red0, waste0, fo0 := f.faultCounters()
	hi0, hw0, hc0, hwb0 := f.hedge.snapshot()
	var mu sync.Mutex // guards res byte counters
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var workerErrs []error

	recordErr := func(err error) {
		errMu.Lock()
		workerErrs = append(workerErrs, err)
		errMu.Unlock()
	}

	fetchSeg := func(pc *pathConn, seg int) error {
		from := int64(seg) * segSize
		to := from + segSize - 1
		if to >= size {
			to = size - 1
		}
		ssp := ctr.StartSpan(obs.CatSegment, "segment")
		ssp.SetPath(pc.name)
		ssp.SetNum("seg", float64(seg))
		n, err := f.fetchSegHedged(pc, pol, index, level, from, to, dlAt)
		ssp.End()
		if err != nil {
			return err
		}
		mu.Lock()
		if pc == f.paths[0] {
			res.PrimaryBytes += n
		} else {
			res.SecondaryBytes += n
		}
		mu.Unlock()
		return nil
	}

	// handle routes a segment outcome; it reports whether the worker
	// should keep claiming.
	handle := func(pc *pathConn, seg int, err error) bool {
		switch {
		case err == nil:
			st.complete()
			return true
		case errors.Is(err, errHedgeCancelled):
			// A doomed-chunk abort cut this transfer mid-read. Not a
			// fault: forget the claim — no requeue budget spent, no
			// breaker fuel — and wind the worker down.
			if st.isDoomed() {
				st.release()
				return false
			}
			// Stale cancellation without a doom verdict (the chunk
			// completed inside the cancel race): hand the segment back.
			st.requeue(seg, pc)
			return true
		case errors.Is(err, errSegmentFailed):
			st.requeue(seg, pc)
			ctr.Event(obs.CatRequeue, "requeue")
			ctr.MarkBad(obs.CatRequeue)
			return true
		case errors.Is(err, errPathDown):
			st.requeue(seg, pc)
			ctr.Event(obs.CatRequeue, "requeue")
			ctr.MarkBad(obs.CatRequeue)
			return false
		default: // fatal protocol error; the path was marked down
			st.requeue(seg, pc)
			recordErr(err)
			return false
		}
	}
	// Doom monitor: abort the chunk once even best-case all-path
	// delivery projects a deadline miss. Only above the lowest rendition
	// — with nothing to downgrade to, a doomed level-0 chunk rides out.
	var doomStop chan struct{}
	if f.Abort.Enabled && level > 0 {
		doomStop = make(chan struct{})
		go f.monitorDoom(st, f.Abort.withDefaults(), size, segSize, start, dlAt, index, level, doomStop)
	}

	// Preferred path: drain from the front while the path lives.
	if primary := f.paths[0]; !primary.isDown() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !st.stopped() {
				seg := st.claimFrontFor(primary)
				if seg < 0 {
					// Nothing claimable now; a segment in flight on
					// another path may yet fail back into the ledger.
					time.Sleep(ledgerIdleSleep)
					continue
				}
				if !handle(primary, seg, fetchSeg(primary, seg)) {
					return
				}
			}
		}()
	}

	// One controller per secondary: path k joins while the kernel's
	// minimal covering prefix over the live paths reaches it, or
	// unconditionally once every cheaper path is down (degraded mode
	// inverts the cost preference to honor the deadline). While engaged
	// it keeps claiming back-segments — re-evaluating per segment, not
	// per tick — so a fast secondary saturates and still stands down as
	// soon as the cheaper set suffices again.
	for k := 1; k < len(f.paths); k++ {
		cheaper, pc := f.paths[:k], f.paths[k]
		if pc.isDown() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			engaged := false
			for !st.stopped() {
				need := float64(st.remainingSegments()) * float64(segSize)
				// Cache-aware service-time hint: a chunk the edge will
				// serve from its store moves far faster than the path
				// rate history suggests, so the demand shrinks with the
				// hit probability. A known miss (or no edge at all)
				// leaves it untouched.
				need *= core.DemandFactor(f.cacheHitProb(index), f.CacheHint.Damp)
				if rank := liveCount(cheaper); rank > 0 {
					mu.Lock()
					got := res.PrimaryBytes + res.SecondaryBytes
					mu.Unlock()
					on, rate, window := engageCount(f.clk.now().Sub(start), d, alpha, got, need, f.livePaths())
					if rank > on {
						if engaged {
							engaged = false
							fo.emitToggle(false, "", pc.name, index, level, rate, need, window)
						}
						time.Sleep(controllerTick)
						continue
					}
					if !engaged {
						engaged = true
						fo.emitToggle(true, "pressure", pc.name, index, level, rate, need, window)
					}
				} else if !engaged {
					engaged = true
					fo.emitToggle(true, "primary-down", pc.name, index, level, 0, need, 0)
				}
				seg := st.claimBackFor(pc)
				if seg < 0 {
					if st.stopped() {
						return
					}
					time.Sleep(ledgerIdleSleep)
					continue
				}
				if !handle(pc, seg, fetchSeg(pc, seg)) {
					return
				}
			}
		}()
	}

	wg.Wait()
	if doomStop != nil {
		close(doomStop)
	}

	ret, red, waste, fov := f.faultCounters()
	res.Retries = ret - ret0
	res.Redials = red - red0
	res.WastedBytes = waste - waste0
	res.Failovers = fov - fo0
	hi, hw, hc, hwb := f.hedge.snapshot()
	res.HedgesIssued = hi - hi0
	res.HedgesWon = hw - hw0
	res.HedgesCancelled = hc - hc0
	res.HedgeWastedBytes = hwb - hwb0
	st.mu.Lock()
	res.Requeued = st.requeueCount
	st.mu.Unlock()
	live := f.livePaths()
	res.Degraded = live < len(f.paths)

	// On failure the partial result still carries the fault accounting,
	// so callers can fold retries/redials into session totals.
	if !st.finished() {
		if st.isDoomed() {
			// An abort is a scheduling decision, not a fault: no
			// chunk.fail event, no breaker fuel. The partial bytes are
			// charged as waste and the cut connections restored so the
			// downgraded refetch starts on live sockets.
			res.AbortedDoomed = true
			wasted := res.PrimaryBytes + res.SecondaryBytes
			f.abort.wastedBytes.Add(wasted)
			fo.noteAbortWaste(wasted)
			f.restoreAfterAbort(pol)
			return res, doomError(index, level)
		}
		var ferr error
		switch {
		case st.aborted():
			ferr = fmt.Errorf("netmp: chunk %d level %d: %w after %d requeues", index, level, ErrChunkExhausted, res.Requeued)
		default:
			errMu.Lock()
			joined := errors.Join(workerErrs...)
			errMu.Unlock()
			if live == 0 {
				ferr = errors.Join(ErrAllPathsDown, joined)
			} else if joined == nil {
				ferr = fmt.Errorf("netmp: chunk %d level %d incomplete", index, level)
			} else {
				ferr = joined
			}
		}
		fo.emitChunkFail(index, level, ferr)
		return res, ferr
	}
	if st.isDoomed() {
		// The last segments landed inside the doom-verdict race window:
		// the chunk completed after all, but the monitor already cut the
		// connections — restore them and drop the stale cancel flags.
		f.restoreAfterAbort(pol)
	}
	res.Duration = f.clk.now().Sub(start)
	if res.Duration > d {
		res.MissedBy = res.Duration - d
	}
	if res.MissedBy == 0 {
		// On-time delivery means the local predictor has caught up with
		// whatever capacity drop a neighbor announced: consume the
		// board pre-arm so it stops tightening future chunks.
		f.ackBoardEpoch()
	}
	fo.emitChunkDone(index, level, d, res)
	return res, nil
}

// fetchSegSupervised downloads one segment on pc, absorbing transient
// faults: a corrupted payload is re-requested on the intact connection,
// and an I/O error triggers a redial (exponential backoff + jitter)
// because the connection's framing state is unknown. Every attempt's
// outcome feeds the current origin's circuit breaker, and a segment
// whose origin breaker opens mid-flight is re-dispatched through a
// redial to the next healthy origin. It returns the verified byte
// count, or errSegmentFailed once the per-segment budget is spent (the
// caller requeues the segment), or errPathDown when the path's redial
// budget is gone or the failure was fatal, or errHedgeCancelled when a
// winning hedge aborted the attempt.
func (f *Fetcher) fetchSegSupervised(pc *pathConn, pol RetryPolicy, index, level int, from, to int64) (int64, error) {
	for attempt := 0; ; attempt++ {
		// A tripped origin is not worth another request: fail over now
		// (multi-origin sets only; a sole origin keeps legacy semantics).
		if pc.set.Size() > 1 && pc.set.CurrentState() == BreakerOpen {
			if derr := pc.redial(pol); derr != nil {
				return 0, derr
			}
		}
		o := pc.set.current()
		t0 := f.clk.now()
		n, verified, err := f.requestRange(pc, index, level, from, to)
		if err == nil && verified {
			pc.noteSuccess(n)
			o.recordOutcome(nil, f.clk.now().Sub(t0))
			return n, nil
		}
		if err != nil && pc.takeCancelled() {
			// Not a fault: the hedge twin already delivered the segment.
			return 0, errHedgeCancelled
		}
		pc.noteFault(n)
		fault := err
		if fault == nil {
			fault = errCorruptPayload
		}
		o.recordOutcome(fault, 0)
		pc.emitFault(fault)
		if err != nil && !isTransient(err) {
			pc.markDown()
			return 0, err
		}
		if err != nil {
			if derr := pc.redial(pol); derr != nil {
				return 0, derr
			}
		}
		if attempt+1 >= pol.SegmentBudget {
			return 0, errSegmentFailed
		}
		bsp := f.curTrace().StartSpan(obs.CatBackoff, "backoff")
		bsp.SetPath(pc.name)
		time.Sleep(pol.backoff(attempt, pc.jitterRNG(pol)))
		bsp.End()
	}
}

// FetchManifest downloads and parses the server's MPD over a fresh
// connection, returning the reconstructed video description and the
// per-representation chunk sizes — the client-side bootstrap that needs
// no out-of-band knowledge of the asset.
func FetchManifest(addr string) (*dash.Video, [][]int64, error) {
	pc, err := dialPath("manifest", addr)
	if err != nil {
		return nil, nil, err
	}
	defer pc.conn.Close()
	if _, err := io.WriteString(pc.conn, "GET /manifest.mpd HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		return nil, nil, fmt.Errorf("netmp: manifest request: %w", err)
	}
	contentLength, _, err := pc.readHead("200")
	if err != nil {
		return nil, nil, err
	}
	if contentLength > 64<<20 {
		return nil, nil, fmt.Errorf("netmp: manifest length %d", contentLength)
	}
	body := make([]byte, contentLength)
	if _, err := io.ReadFull(pc.r, body); err != nil {
		return nil, nil, fmt.Errorf("netmp: manifest body: %w", err)
	}
	mpd, err := dash.DecodeMPD(body)
	if err != nil {
		return nil, nil, err
	}
	return dash.VideoFromManifest(mpd, "remote")
}

// requestRange performs one HTTP range request on a path connection and
// verifies the payload. Every I/O operation (the write, the status and
// header reads, and each body block read) runs under the policy's
// IOTimeout so a stalled path surfaces as a timeout instead of hanging
// the worker. It returns the byte count and whether every byte matched.
func (f *Fetcher) requestRange(pc *pathConn, index, level int, from, to int64) (int64, bool, error) {
	timeout := f.Retry.withDefaults().IOTimeout
	extend := func() { pc.conn.SetDeadline(f.clk.now().Add(timeout)) }
	defer pc.conn.SetDeadline(time.Time{})

	lvlID := f.Video.Levels[level].ID
	pc.req = AppendRangeRequest(pc.req[:0], lvlID, index, from, to)
	t0 := f.clk.now()
	extend()
	if _, werr := pc.conn.Write(pc.req); werr != nil {
		return 0, false, fmt.Errorf("netmp: %s write: %w", pc.name, werr)
	}
	contentLength, cacheState, err := pc.readHead("206")
	if err != nil {
		return 0, false, err
	}
	if cacheState != "" && !f.CacheHint.Disabled {
		hit := cacheState == "hit"
		f.noteCacheHeader(pc, index, level, hit)
		if !hit {
			// The edge is (or was) filling this chunk from origin: the
			// whole request rode that fill, so the span is backdated to
			// the request write — that interval is origin time, and the
			// miss-budget walker attributes it to the cache category.
			csp := f.curTrace().StartSpanAt(obs.CatCache, "origin-fill", t0)
			csp.SetPath(pc.name)
			defer csp.End()
		}
	}
	bp := AcquireSegBuf()
	defer ReleaseSegBuf(bp)
	buf := *bp
	var got int64
	ok := true
	for got < contentLength {
		m := int64(len(buf))
		if m > contentLength-got {
			m = contentLength - got
		}
		extend()
		n, err := io.ReadFull(pc.r, buf[:m])
		if got == 0 && n > 0 && f.fb.pending.Load() {
			f.noteFirstByte()
		}
		for i := 0; i < n; i++ {
			if buf[i] != ChunkBody(index, level, from+got+int64(i)) {
				ok = false
			}
		}
		got += int64(n)
		if err != nil {
			return got, ok, fmt.Errorf("netmp: %s body: %w", pc.name, err)
		}
	}
	return got, ok, nil
}
