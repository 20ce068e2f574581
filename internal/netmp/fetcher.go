package netmp

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
	"mpdash/internal/predict"
)

// DefaultSegmentSize is the range granularity of the fetcher.
const DefaultSegmentSize = 32 * 1024

// controllerTick is the cadence at which a standing-by secondary
// re-evaluates deadline pressure (and the doom test runs); pressureWarmup
// is the minimum elapsed time before the first throughput-based
// evaluation (no sample exists earlier).
const (
	controllerTick = 20 * time.Millisecond
	pressureWarmup = controllerTick
)

// errFetcherClosed fails a FetchChunk that Close overtook or followed.
var errFetcherClosed = errors.New("netmp: fetcher closed")

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
//
// The caller of FetchChunk drives the preferred path; each secondary has
// one worker goroutine for the Fetcher's lifetime, so Close it when done.
// One FetchChunk runs at a time.
type Fetcher struct {
	Video *dash.Video
	// Sizes optionally overrides the video's generated chunk sizes with
	// explicit per-[level][chunk] byte counts (as parsed from a remote
	// manifest, whose sizes are authoritative).
	Sizes [][]int64
	// Alpha is the safety factor (default 1).
	Alpha float64
	// SegmentSize is the range-request granularity: one request per
	// segment, though the preferred path may pipeline several per write.
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

	// paths are the supervised connections: paths[0] is the preferred
	// path, the rest are secondaries in ascending cost order.
	paths []*pathConn
	// st is the segment ledger and job the chunk in flight (FetchChunk).
	st  fetchState
	job chunkJob
	// carry is what the last clean chunk left the preferred path; only
	// FetchChunk's goroutine touches it.
	carry runCarry
	// secondaries[k-1] is the worker of paths[k]; workers counts the live
	// worker goroutines, which Close joins.
	secondaries []*secondary
	workers     sync.WaitGroup

	doomT *WheelTimer // re-arms doomTick while an abortable chunk is in flight; made on first use
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

	firstByte atomic.Bool // an instrumented chunk awaits its first byte (noteFirstByte)

	// chint is the cache-hint memory fed by X-MPDash-Cache response
	// headers (cachehint.go); a session that never sees the header keeps
	// hit probability 0, and its engage and hedge decisions are untouched.
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
	f.st.cond.L = &f.st.mu
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
	for k := 1; k < len(f.paths); k++ {
		w := &secondary{k: k, start: make(chan struct{}, 1)}
		w.tick = SharedWheel().idleTimer(func() { f.st.raise(&w.ticked) })
		f.secondaries = append(f.secondaries, w)
		f.workers.Add(1)
		go f.runSecondary(w)
	}
	return f, nil
}

// Close tears down every connection, reporting every failure, and returns
// once the workers have exited; a FetchChunk in flight or after it fails.
// Repeated calls are safe (the connections report being closed again).
func (f *Fetcher) Close() error {
	f.st.mu.Lock()
	if !f.st.closed {
		f.st.closed = true
		for _, w := range f.secondaries {
			close(w.start)
		}
		f.st.cond.Broadcast()
	}
	f.st.mu.Unlock()
	var errs []error
	for _, pc := range f.paths {
		errs = append(errs, pc.close())
	}
	f.workers.Wait()
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
//
// The Fetcher owns one ledger and resets it per chunk. Every change a
// parked party waits for — a segment requeued or released, the doom
// verdict, the chunk finishing, a worker letting go, Close, a standing-by
// tick — broadcasts on cond, so no party polls.
type fetchState struct {
	mu            sync.Mutex
	cond          sync.Cond // L = &mu
	front         int       // next fresh segment from the start
	back          int       // last fresh segment at the end
	requeued      []requeuedSeg
	requeues      map[int]int // per-segment requeue counts
	inflight      int
	done          int
	total         int
	failed        bool // requeue budget blown: abort the chunk
	doomed        bool // predicted deadline miss: abandon, downgrade
	requeueBudget int
	requeueCount  int64

	primaryBytes, secondaryBytes int64   // verified payload by side
	errs                         []error // fatal path errors
	holders                      int     // workers still holding the chunk
	// engaged counts the engaged secondaries: driveSecondary toggles it
	// outside the lock, claimRunFor reads it; engagedAny holds once one has.
	engaged    atomic.Int32
	engagedAny atomic.Bool
	reach      int64 // the preferred path's largest delivered + claimed bytes
	// doomArmed holds while the doom timer is armed or its callback runs;
	// doomOff, set as the chunk winds down, stops it re-arming.
	doomArmed, doomOff bool
	closed             bool // Close was called; survives resets
}

type requeuedSeg struct {
	seg int
	by  *pathConn // the path that failed it
}

// resetLocked readies the ledger for a chunk of total segments.
func (st *fetchState) resetLocked(total, requeueBudget int) {
	st.front, st.back, st.total = 0, total-1, total
	st.requeued = st.requeued[:0]
	clear(st.requeues)
	st.inflight, st.done = 0, 0
	st.failed, st.doomed = false, false
	st.requeueBudget, st.requeueCount = requeueBudget, 0
	st.primaryBytes, st.secondaryBytes = 0, 0
	st.errs = st.errs[:0]
	st.doomOff, st.reach = false, 0
	st.engaged.Store(0)
	st.engagedAny.Store(false)
}

// stoppedLocked reports whether the workers should wind down.
func (st *fetchState) stoppedLocked() bool {
	return st.done == st.total || st.failed || st.doomed || st.closed
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

// claimRunFor hands the preferred path pc a run of n segments from first,
// n = 0 when nothing is claimable. A requeued segment runs alone; a fresh
// run is the least of the fresh segments, the greater of pc's delivered
// ones (slow start) and the carried window up to half the fresh ones, and
// a controllerTick of work at the lesser of rate (the forecast) and pc's
// delivered rate over elapsed, the carried rate until pc has delivered —
// and one while a secondary is engaged or pc can hedge (DESIGN.md §6).
func (st *fetchState) claimRunFor(pc *pathConn, segSize int64, rate float64, elapsed time.Duration, hedges bool, carry runCarry) (first, n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stoppedLocked() {
		return 0, 0
	}
	if seg, ok := st.takeRequeuedLocked(pc, false); ok {
		return seg, 1
	}
	if st.front <= st.back {
		if elapsed > 0 {
			got := float64(st.primaryBytes) / elapsed.Seconds()
			if st.primaryBytes == 0 {
				got = carry.rate
			}
			rate = min(rate, got)
		}
		// The carried window takes at most half the fresh segments, so a
		// path that degrades inside its run leaves a secondary as many.
		fresh := st.back - st.front + 1
		n = min(fresh, max(int(st.primaryBytes/segSize), min(int(carry.win/segSize), fresh/2)), int(rate*controllerTick.Seconds()/float64(segSize)))
		if n < 1 || st.engaged.Load() > 0 || hedges {
			n = 1
		}
		st.reach = max(st.reach, st.primaryBytes+int64(n)*segSize)
		first = st.front
		st.front += n
		st.inflight += n
		return first, n
	}
	if seg, ok := st.takeRequeuedLocked(pc, true); ok {
		return seg, 1
	}
	return 0, 0
}

// claimBackFor hands pc the last segment, or -1.
func (st *fetchState) claimBackFor(pc *pathConn) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stoppedLocked() {
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

// complete marks a claimed segment fetched and verified, crediting its n
// bytes to the preferred path or the secondaries.
func (st *fetchState) complete(primary bool, n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	st.done++
	if primary {
		st.primaryBytes += n
	} else {
		st.secondaryBytes += n
	}
	if st.done == st.total { // no parked party waits on a mere segment
		st.cond.Broadcast()
	}
}

// requeue returns a claimed segment to the ledger after pc failed it;
// err, when not nil, is the fatal error that took pc down. Blowing the
// per-segment requeue budget aborts the whole chunk.
func (st *fetchState) requeue(seg int, by *pathConn, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.cond.Broadcast()
	if err != nil {
		st.errs = append(st.errs, err)
	}
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

// ledgerView is one consistent reading of the ledger.
type ledgerView struct {
	remaining, done int   // segments unclaimed (requeued included), verified
	delivered       int64 // verified bytes
	stopped, doomed bool
}

func (st *fetchState) view() ledgerView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return ledgerView{remaining: max(st.back-st.front+1, 0) + len(st.requeued), done: st.done,
		delivered: st.primaryBytes + st.secondaryBytes, stopped: st.stoppedLocked(), doomed: st.doomed}
}

// awaitWork parks an idle claimer until a segment is claimable or the
// chunk stops, reporting whether to claim again.
func (st *fetchState) awaitWork() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.stoppedLocked() && st.front > st.back && len(st.requeued) == 0 {
		st.cond.Wait()
	}
	return !st.stoppedLocked()
}

// raise sets *flag, guarded by the ledger, and wakes every parked party.
func (st *fetchState) raise(flag *bool) {
	st.mu.Lock()
	*flag = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// letGo is a worker's last touch of the chunk.
func (st *fetchState) letGo() {
	st.mu.Lock()
	st.holders--
	st.cond.Broadcast()
	st.mu.Unlock()
}

// release returns a claimed segment without completing or requeueing it
// — the abort path: the ledger forgets the claim, spending no requeue
// budget and charging no fault.
func (st *fetchState) release() {
	st.mu.Lock()
	st.inflight--
	st.cond.Broadcast()
	st.mu.Unlock()
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

// chunkJob is the chunk in flight as every party sees it: written by
// FetchChunk before the chunk is handed out, read-only until it returns.
type chunkJob struct {
	index, level  int
	size, segSize int64
	d             time.Duration
	alpha         float64
	pol           RetryPolicy
	start, dlAt   time.Time
	ctr           *obs.Trace
	fo            *fetcherObs
	abort         AbortPolicy
}

// runCarry is what a clean chunk leaves the preferred path for the next,
// as TCP's cwnd outlives a keep-alive connection's short gaps: the largest
// run window it reached (delivered + claimed bytes) and its verified
// primary bytes over its duration, good for a chunk that starts before
// until, one controllerTick after it ended. The zero value is a cold start.
type runCarry struct {
	win   int64
	rate  float64
	until time.Time
}

// segRange returns segment seg's byte range [from, to].
func (j *chunkJob) segRange(seg int) (from, to int64) {
	from = int64(seg) * j.segSize
	return from, min(from+j.segSize, j.size) - 1
}

// secondary is the worker of one secondary path, parked on start between
// chunks (runSecondary).
type secondary struct {
	k      int
	start  chan struct{} // one token per chunk handed over; closed by Close
	tick   *WheelTimer   // the standing-by re-evaluation
	ticked bool          // tick fired; guarded by the ledger's mu
}

// FetchChunk downloads chunk (index, level) with deadline window d. It
// survives transient path faults (retry + redial + requeue) and runs on
// whatever subset of paths is alive; it fails only when every path dies
// (ErrAllPathsDown), a segment exhausts its requeue budget on every
// live path (ErrChunkExhausted), or the fetcher is closed.
func (f *Fetcher) FetchChunk(index, level int, d time.Duration) (*FetchResult, error) {
	size := f.chunkSize(index, level)
	segSize := f.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if f.livePaths() == 0 {
		return nil, ErrAllPathsDown
	}
	nSegs := int((size + segSize - 1) / segSize)
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
		f.firstByte.Store(true)
		defer f.firstByte.Store(false)
	}
	ctr := f.curTrace()
	fsp := ctr.StartSpan(obs.CatFetch, "fetch")
	fsp.SetNum("size", float64(size))
	fsp.SetNum("segs", float64(nSegs))
	defer fsp.End()
	ret0, red0, waste0, fo0 := f.faultCounters()
	hi0, hw0, hc0, hwb0 := f.hedge.snapshot()

	// The preferred path's run window carries into a chunk that starts
	// within a controllerTick of a clean one; only a clean finish below
	// leaves a new one.
	if !start.Before(f.carry.until) {
		f.carry = runCarry{}
	}
	pol := f.Retry.withDefaults()
	f.job = chunkJob{index: index, level: level, size: size, segSize: segSize, d: d, alpha: alpha,
		pol: pol, start: start, dlAt: dlAt, ctr: ctr, fo: fo, abort: f.Abort.withDefaults()}
	f.begin(nSegs)
	if !f.paths[0].isDown() {
		f.drivePrimary()
	}
	f.awaitRelease()

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
	st := &f.st
	st.mu.Lock()
	res.PrimaryBytes, res.SecondaryBytes, res.Requeued = st.primaryBytes, st.secondaryBytes, st.requeueCount
	finished, doomed, exhausted, closed := st.done == st.total, st.doomed, st.failed, st.closed
	pathErr := errors.Join(st.errs...)
	win := max(f.carry.win, st.reach)
	st.mu.Unlock()
	f.carry = runCarry{}
	live := f.livePaths()
	res.Degraded = live < len(f.paths)

	// On failure the partial result still carries the fault accounting,
	// so callers can fold retries/redials into session totals.
	if !finished {
		if doomed {
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
		case closed:
			ferr = fmt.Errorf("netmp: chunk %d level %d: %w", index, level, errFetcherClosed)
		case exhausted:
			ferr = fmt.Errorf("netmp: chunk %d level %d: %w after %d requeues", index, level, ErrChunkExhausted, res.Requeued)
		case live == 0:
			ferr = errors.Join(ErrAllPathsDown, pathErr)
		case pathErr == nil:
			ferr = fmt.Errorf("netmp: chunk %d level %d incomplete", index, level)
		default:
			ferr = pathErr
		}
		fo.emitChunkFail(index, level, ferr)
		return res, ferr
	}
	if doomed {
		// The last segments landed inside the doom-verdict race window:
		// the chunk completed after all, but the doom test already cut the
		// connections — restore them and drop the stale cancel flags.
		f.restoreAfterAbort(pol)
	}
	end := f.clk.now()
	res.Duration = end.Sub(start)
	// A clean chunk leaves the preferred path a warm run window: one with
	// no secondary engaged, no fault charged, redial or requeue, no doom.
	if !doomed && res.Retries+res.Redials+res.Requeued == 0 && !st.engagedAny.Load() && res.Duration > 0 {
		f.carry = runCarry{win: win, rate: float64(res.PrimaryBytes) / res.Duration.Seconds(), until: end.Add(controllerTick)}
	}
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

// begin resets the ledger for a chunk of total segments, hands the chunk
// to the worker of every live secondary and arms the doom test. A closed
// fetcher hands out nothing: its ledger reads stopped.
func (f *Fetcher) begin(total int) {
	st := &f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.resetLocked(total, f.job.pol.RequeueBudget)
	if st.closed {
		return
	}
	for _, w := range f.secondaries {
		if !f.paths[w.k].isDown() {
			st.holders++
			w.start <- struct{}{} // never blocks: the worker took the last token before letting go
		}
	}
	if f.job.abort.Enabled && f.job.level > 0 { // level 0 has nothing to downgrade to
		if f.doomT == nil {
			f.doomT = SharedWheel().idleTimer(f.doomTick)
		}
		st.doomArmed = true
		f.doomT.reset(controllerTick)
	}
}

// awaitRelease returns once every party has let go of the chunk: the
// workers it was handed to, then the doom test, which stays armed until
// they have.
func (f *Fetcher) awaitRelease() {
	st := &f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.holders > 0 {
		st.cond.Wait()
	}
	st.doomOff = true
	if st.doomArmed && f.doomT.Stop() {
		st.doomArmed = false
	}
	for st.doomArmed {
		st.cond.Wait()
	}
}

// drivePrimary drains the preferred path from the front, run by run, on
// the calling goroutine, while the path lives. With nothing claimable it
// parks on the ledger: a segment in flight on another path may yet fail
// back into it. A path with a backup origin can hedge, one segment a run.
func (f *Fetcher) drivePrimary() {
	pc, st, j := f.paths[0], &f.st, &f.job
	hedges := pc.set.Size() > 1
	for {
		if seg, n := st.claimRunFor(pc, j.segSize, f.hedge.predictedRate(), f.clk.now().Sub(j.start), hedges, f.carry); n > 0 {
			if !f.fetchRun(pc, seg, n) {
				return
			}
		} else if !st.awaitWork() {
			return
		}
	}
}

// runSecondary is a secondary path's worker goroutine: one chunk per
// token, until Close closes the channel.
func (f *Fetcher) runSecondary(w *secondary) {
	defer f.workers.Done()
	for range w.start {
		f.driveSecondary(w)
		f.st.letGo()
	}
}

// driveSecondary runs one chunk on secondary path k: it joins while the
// kernel's minimal covering prefix over the live paths reaches it, or
// unconditionally once every cheaper path is down (degraded mode inverts
// the cost preference to honor the deadline). While engaged it keeps
// claiming back-segments — re-evaluating per segment, not per tick — so
// a fast secondary saturates and still stands down as soon as the
// cheaper set suffices again; standing by, it re-evaluates every
// controllerTick.
func (f *Fetcher) driveSecondary(w *secondary) {
	j, st := &f.job, &f.st
	cheaper, pc := f.paths[:w.k], f.paths[w.k]
	engaged := false
	for v := st.view(); !v.stopped; v = st.view() {
		need := float64(v.remaining) * float64(j.segSize)
		// Cache-aware service-time hint: a chunk the edge will serve from
		// its store moves far faster than the path rate history suggests,
		// so the demand shrinks with the hit probability. A known miss (or
		// no edge at all) leaves it untouched.
		need *= core.DemandFactor(f.chint.hitProb(j.index))
		on, reason, rate, window := true, "primary-down", 0.0, 0.0
		if rank := liveCount(cheaper); rank > 0 {
			var n int
			n, rate, window = engageCount(f.clk.now().Sub(j.start), j.d, j.alpha, v.delivered, need, f.livePaths())
			on, reason = rank <= n, "pressure"
		}
		if on != engaged {
			engaged = on
			if on {
				st.engaged.Add(1)
				st.engagedAny.Store(true)
			} else {
				st.engaged.Add(-1)
			}
			j.fo.emitToggle(on, reason, pc.name, j.index, j.level, rate, need, window)
		}
		if !on {
			f.standBy(w)
			continue
		}
		if seg := st.claimBackFor(pc); seg < 0 {
			st.awaitWork()
		} else if !f.fetchRun(pc, seg, 1) {
			return
		}
	}
}

// standBy parks a standing-by secondary until its next evaluation,
// controllerTick from now on the shared wheel, or until the chunk stops.
// The tick timer is idle again on return.
func (f *Fetcher) standBy(w *secondary) {
	st := &f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	w.ticked = false
	w.tick.reset(controllerTick)
	for !w.ticked && !st.stoppedLocked() {
		st.cond.Wait()
	}
	if !w.ticked && !w.tick.Stop() {
		for !w.ticked { // it fired as the chunk stopped: let the callback land
			st.cond.Wait()
		}
	}
}

// fetchRun fetches the claimed run of n ≥ 1 segments from first on pc and
// settles it in the ledger, reporting whether pc should keep claiming. A
// lone segment whose path has a healthy backup origin is raced against a
// hedge (hedge.go); anything else is supervised alone.
func (f *Fetcher) fetchRun(pc *pathConn, first, n int) bool {
	var err error
	if backup := f.hedgeBackup(pc, n); backup != nil {
		err = f.raceHedge(pc, first, backup)
	} else {
		_, err = f.supervise(pc, first, n, false)
	}
	return err == nil || f.giveBack(pc, err)
}

// supervise fetches the run of n ≥ 1 segments from first on pc in
// attempts: the one place a request's faults are absorbed (DESIGN.md §6).
// Each attempt writes the owed segments' range requests in one write and
// reads their 206s in order, settling each segment that verifies and
// charging each corrupt body, which stays owed: the framing is intact. An
// I/O error is charged once and ends the attempt; the path is redialled
// (a fatal error marks it down instead). A segment gets at most
// SegmentBudget attempts, with a backoff before each retry. Unless held
// (the supervised side of a hedge race, which settles its winner itself),
// a verified segment completes in the ledger at once, and the predictor
// observes the run once: its verified bytes over the time from its first
// write to its last verified byte.
//
// It returns the verified bytes and nil once nothing is owed. Otherwise
// pc.owed holds what is, and the error says why: errSegmentFailed once
// the budget is spent, errPathDown when a redial failed, errHedgeCancelled
// when a winning hedge or a doom verdict cut the attempt, or the fatal
// error that took the path down.
func (f *Fetcher) supervise(pc *pathConn, first, n int, held bool) (verified int64, err error) {
	j, st := &f.job, &f.st
	lvlID := f.Video.Levels[j.level].ID
	pc.owed = pc.owed[:0]
	for seg := first; seg < first+n; seg++ {
		pc.owed = append(pc.owed, seg)
	}
	var start, lastOK time.Time
	for attempt := 0; ; attempt++ {
		// A tripped origin is not worth another request: fail over now
		// (multi-origin sets only; a sole origin keeps legacy semantics).
		if pc.set.Size() > 1 && pc.set.CurrentState() == BreakerOpen {
			if err = pc.redial(j.pol); err != nil {
				break
			}
		}
		pc.req = pc.req[:0]
		for _, seg := range pc.owed {
			from, to := j.segRange(seg)
			pc.req = AppendRangeRequest(pc.req, lvlID, j.index, from, to)
		}
		o, t0 := pc.set.current(), f.clk.now()
		if start.IsZero() {
			start, lastOK = t0, t0
		}
		owed, i := pc.owed[:0], 0
		var got int64
		err = f.writeRequests(pc)
		if err == nil && len(pc.owed) > 1 {
			pc.lend()
		}
		for ; err == nil && i < len(pc.owed); i++ {
			seg := pc.owed[i]
			from, to := j.segRange(seg)
			ssp := j.ctr.StartSpan(obs.CatSegment, "segment")
			ssp.SetPath(pc.name)
			ssp.SetNum("seg", float64(seg))
			var ok bool
			got, ok, err = f.readRange(pc, j.index, j.level, from, to-from+1, t0)
			ssp.End()
			if err != nil {
				break
			}
			now := f.clk.now()
			if ok {
				pc.noteSuccess(got)
				o.recordOutcome(nil)
				if !held {
					st.complete(pc == f.paths[0], got)
				}
				verified, lastOK = verified+got, now
			} else {
				pc.chargeFault(o, got, errCorruptPayload)
				owed = append(owed, seg)
			}
		}
		pc.owed = append(owed, pc.owed[i:]...)
		pc.unlend(false)
		if err != nil {
			if pc.takeCancelled() {
				err = errHedgeCancelled
				break
			}
			pc.chargeFault(o, got, err)
			if !isTransient(err) {
				pc.markDown()
				break
			}
			if err = pc.redial(j.pol); err != nil {
				break
			}
		}
		if len(pc.owed) == 0 {
			break
		}
		if attempt+1 >= j.pol.SegmentBudget {
			err = errSegmentFailed
			break
		}
		bsp := j.ctr.StartSpan(obs.CatBackoff, "backoff")
		bsp.SetPath(pc.name)
		time.Sleep(j.pol.backoff(attempt, pc.jitterRNG(j.pol)))
		bsp.End()
	}
	pc.conn.SetDeadline(time.Time{})
	if !held {
		f.observeSegRate(verified, lastOK.Sub(start))
	}
	return verified, err
}

// giveBack hands back what pc still owes after supervise failed with err,
// reporting whether pc should keep claiming. After a doom verdict the owed
// segments are released: an abort is not a fault, so it spends no requeue
// budget, and the worker winds down. Otherwise pc requeues them, a fatal
// err charged with the first. A cancel without a doom verdict is stale
// (the chunk completed inside the cancel race) and, like a spent budget,
// leaves pc claiming.
func (f *Fetcher) giveBack(pc *pathConn, err error) bool {
	j, st := &f.job, &f.st
	doomed := st.view().doomed
	cancelled, failed, down := errors.Is(err, errHedgeCancelled), errors.Is(err, errSegmentFailed), errors.Is(err, errPathDown)
	fatal := err
	if cancelled || failed || down {
		fatal = nil
	}
	for _, seg := range pc.owed {
		if doomed {
			st.release()
		} else {
			st.requeue(seg, pc, fatal)
			fatal = nil
		}
	}
	pc.owed = pc.owed[:0]
	if failed || down {
		j.ctr.Event(obs.CatRequeue, "requeue")
		j.ctr.MarkBad(obs.CatRequeue)
	}
	return failed || cancelled && !doomed
}

// FetchManifest downloads and parses the server's MPD over a fresh
// connection, returning the reconstructed video description and the
// per-representation chunk sizes — the client-side bootstrap that needs
// no out-of-band knowledge of the asset.
func FetchManifest(addr string) (*dash.Video, [][]int64, error) {
	pc, err := dialOrigins("manifest", []string{addr}, BreakerPolicy{})
	if err != nil {
		return nil, nil, err
	}
	defer pc.conn.Close()
	// Every I/O runs under the default IOTimeout, as a range request does.
	timeout := RetryPolicy{}.withDefaults().IOTimeout
	extend := func() { pc.conn.SetDeadline(time.Now().Add(timeout)) }
	extend()
	if _, err := io.WriteString(pc.conn, "GET /manifest.mpd HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		return nil, nil, fmt.Errorf("netmp: manifest request: %w", err)
	}
	extend()
	contentLength, _, err := pc.readHead("200")
	if err != nil {
		return nil, nil, err
	}
	if contentLength > 64<<20 {
		return nil, nil, fmt.Errorf("netmp: manifest length %d", contentLength)
	}
	body := make([]byte, contentLength)
	extend()
	if _, err := io.ReadFull(pc.r, body); err != nil {
		return nil, nil, fmt.Errorf("netmp: manifest body: %w", err)
	}
	mpd, err := dash.DecodeMPD(body)
	if err != nil {
		return nil, nil, err
	}
	return dash.VideoFromManifest(mpd, "remote")
}

// writeRequests sends pc.req's request heads in one write, under IOTimeout.
func (f *Fetcher) writeRequests(pc *pathConn) error {
	pc.conn.SetDeadline(f.clk.now().Add(f.Retry.withDefaults().IOTimeout))
	if _, err := pc.conn.Write(pc.req); err != nil {
		return fmt.Errorf("netmp: %s write: %w", pc.name, err)
	}
	return nil
}

// readRange reads and verifies the next 206 off pc, answering a request
// for want bytes from `from` on sent at t0: the byte count and whether all
// matched. A shorter 206 is read to its end (its framing is intact) and
// never verifies; a longer one is an error, its body unread, since a peer
// may stream it without end. The body is checked where the read put it:
// bytes in the reader's buffer in place, one fill at a time, and a rest
// at least the buffer's size straight from the socket into a pooled
// block, as bufio reads what its buffer cannot hold. The deadline is
// extended before each read that can block.
func (f *Fetcher) readRange(pc *pathConn, index, level int, from, want int64, t0 time.Time) (int64, bool, error) {
	timeout := f.Retry.withDefaults().IOTimeout
	extend := func() { pc.conn.SetDeadline(f.clk.now().Add(timeout)) }
	extend()
	contentLength, cacheState, err := pc.readHead("206")
	if err != nil {
		return 0, false, err
	}
	if contentLength > want {
		return 0, false, fmt.Errorf("netmp: %s 206 of %d bytes for a %d-byte range", pc.name, contentLength, want)
	}
	if cacheState != "" {
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
	r := pc.r
	var bp *[]byte // the segment block, taken on first use
	defer func() {
		if bp != nil {
			ReleaseSegBuf(bp)
		}
	}()
	var got int64
	ok := contentLength == want
	for got < contentLength {
		rest := contentLength - got
		var b []byte
		switch {
		case r.Buffered() > 0:
			// b aliases r's buffer until the next read on r.
			b, _ = r.Peek(int(min(int64(r.Buffered()), rest)))
			r.Discard(len(b))
		case rest >= int64(r.Size()):
			if bp == nil {
				bp = AcquireSegBuf()
				if testHookBlock != nil {
					testHookBlock()
				}
			}
			extend()
			var n int
			n, err = io.ReadFull(r, (*bp)[:min(rest, int64(len(*bp)))])
			b = (*bp)[:n]
		default:
			extend()
			if _, err = r.Peek(1); err == nil {
				continue // one fill: check what it brought
			}
		}
		if got == 0 && len(b) > 0 && f.firstByte.Load() {
			f.noteFirstByte()
		}
		ok = checkChunkBody(b, index, level, from+got) && ok
		got += int64(len(b))
		if err != nil {
			return got, ok, fmt.Errorf("netmp: %s body: %w", pc.name, err)
		}
	}
	return got, ok, nil
}
