package netmp

// Doomed-chunk abort: the cross-layer graceful-degradation mechanism.
// While a chunk is in flight, a wheel callback compares the live Holt-Winters
// service-rate estimate (the same predictor that paces hedges) against
// the remaining α·D window under the *best case* — every live path
// engaged and delivering at the predicted rate. When even that cannot
// land the chunk before its deadline, the transfer is doomed: riding it
// to completion buys bytes that cannot become on-time video. The callback
// cancels the in-flight requests through the hedge machinery's
// loser-cancel path (connection closed mid-read, no fault charged, no
// breaker fuel, no requeue budget spent), FetchChunk surfaces the typed
// ErrChunkDoomed outcome, and the Streamer re-requests the chunk at the
// highest rendition the predictor says still fits the remaining window —
// rebuffering only when no rendition fits.
//
// An abort is a scheduling decision, not a fault: the paths stay
// healthy, their breakers untouched, and the connections are restored
// (redialled) before FetchChunk returns so the downgraded refetch starts
// on live sockets.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// ErrChunkDoomed reports a chunk abandoned mid-flight because even
// best-case both-path delivery at the predicted rate could not meet the
// deadline. The Streamer responds by downgrading: re-requesting the
// chunk at the highest rendition that still fits the remaining window.
var ErrChunkDoomed = errors.New("netmp: chunk doomed (predicted deadline miss even with all paths engaged)")

// AbortPolicy bounds doomed-chunk aborts. The zero value selects the
// defaults noted on each field; the zero value of Enabled leaves the
// mechanism off, preserving the pre-abort ride-it-out behaviour.
type AbortPolicy struct {
	// Enabled turns doomed-chunk abort on.
	Enabled bool
	// Factor scales the doom test: the chunk is doomed when the
	// best-case predicted finish time exceeds Factor × the remaining
	// deadline window. Values above 1 abort later (more conservative),
	// below 1 abort earlier. Default 1.
	Factor float64
	// MinProgress is the fraction of the α·D window that must elapse
	// before the first doom evaluation, so a noisy early estimate cannot
	// abort a chunk that has barely started. Default 0.25. A congestion
	// board pre-arm (a neighbor session observed a capacity drop) halves
	// this gate: the congestion is already confirmed.
	MinProgress float64
}

func (p AbortPolicy) withDefaults() AbortPolicy {
	if p.Factor <= 0 {
		p.Factor = 1
	}
	if p.MinProgress <= 0 {
		p.MinProgress = 0.25
	}
	return p
}

// abortState carries the fetcher-wide abort counters, read by the
// scrape-time collectors and the per-fetch deltas.
type abortState struct {
	aborts      atomic.Int64
	wastedBytes atomic.Int64
}

// doomed is the Algorithm-1-shaped abort test: given the predicted
// per-path service rate (bytes/s), the number of live paths, the bytes
// not yet delivered, and the remaining deadline window, it reports
// whether even best-case all-path engagement misses the deadline, along
// with the predicted best-case finish time that drove the decision.
// Pure and clock-free so the decision is unit-testable deterministically.
func doomed(rate float64, paths int, remaining int64, windowLeft time.Duration, factor float64) (bool, time.Duration) {
	if rate <= 0 || paths <= 0 || remaining <= 0 {
		return false, 0
	}
	if windowLeft <= 0 {
		// The deadline has already passed; aborting now cannot help the
		// current chunk (the miss is a fact), and the remaining bytes
		// arrive fastest by riding the established transfer.
		return false, 0
	}
	best := time.Duration(float64(remaining) / (rate * float64(paths)) * float64(time.Second))
	return float64(best) > factor*float64(windowLeft), best
}

// livePaths counts the fetcher's paths still able to carry traffic.
func (f *Fetcher) livePaths() int { return liveCount(f.paths) }

func liveCount(paths []*pathConn) int {
	n := 0
	for _, pc := range paths {
		if !pc.isDown() {
			n++
		}
	}
	return n
}

// doomTick is the abort controller, run inline on the shared wheel every
// controllerTick while an abortable chunk is in flight: it tests the
// chunk and re-arms until the chunk winds down (begin and awaitRelease
// arm and disarm it).
func (f *Fetcher) doomTick() {
	st := &f.st
	if !st.view().stopped {
		f.testDoom(&f.job)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.doomOff || st.stoppedLocked() {
		st.doomArmed = false
		st.cond.Broadcast()
		return
	}
	f.doomT.reset(controllerTick)
}

// testDoom evaluates the doom test once for chunk j and acts on it.
func (f *Fetcher) testDoom(j *chunkJob) {
	now := f.clk.now()
	preArmed := f.boardPreArmed()
	gate := time.Duration(j.abort.MinProgress * float64(j.dlAt.Sub(j.start)))
	if preArmed {
		gate /= 2 // a neighbor already confirmed the congestion
	}
	if now.Sub(j.start) < gate {
		return
	}
	rate := f.bestRateEstimate(preArmed)
	if rate <= 0 {
		return
	}
	remaining := max(j.size-int64(f.st.view().done)*j.segSize, 0)
	paths := f.livePaths()
	isDoomed, best := doomed(rate, paths, remaining, j.dlAt.Sub(now), j.abort.Factor)
	if !isDoomed {
		return
	}
	f.st.raise(&f.st.doomed) // no further claims; the workers wind down
	f.abort.aborts.Add(1)
	f.emitAbort(j.index, j.level, rate, paths, remaining, j.dlAt.Sub(now), best, preArmed)
	j.ctr.Event(obs.CatAbort, "abort")
	j.ctr.MarkBad(obs.CatAbort)
	// Cut the in-flight transfers: the loser-cancel path closes each
	// connection mid-read and flags the supervised loop so the resulting
	// I/O error is a cancellation, not a fault.
	for _, pc := range f.paths {
		if !pc.isDown() {
			pc.cancelForHedge()
		}
	}
}

// bestRateEstimate returns the per-path service-rate forecast (bytes/s)
// the doom test runs on: the local Holt-Winters prediction, clamped by
// the congestion board's population estimate when a neighbor has
// pre-armed us — their freshly-observed post-drop rate beats our stale
// pre-drop one.
func (f *Fetcher) bestRateEstimate(preArmed bool) float64 {
	rate := f.hedge.predictedRate()
	if preArmed {
		if br, ok := f.boardRate(); ok && (rate <= 0 || br < rate) {
			rate = br
		}
	}
	return rate
}

// emitAbort journals the abort decision with the numbers that drove it
// and charges the wasted-byte accounting.
func (f *Fetcher) emitAbort(index, level int, rate float64, paths int, remaining int64, windowLeft, best time.Duration, preArmed bool) {
	fo := f.obsHandles()
	if fo == nil {
		return
	}
	fo.noteAbort()
	if fo.sink == nil {
		return
	}
	e := obs.NewEvent("chunk.abort").WithChunk(index, level).
		WithNum("rate_bps", rate*8).
		WithNum("paths", float64(paths)).
		WithNum("remaining_bytes", float64(remaining)).
		WithNum("window_s", windowLeft.Seconds()).
		WithNum("best_finish_s", best.Seconds())
	if preArmed {
		e = e.WithStr("prearmed", "true")
	}
	fo.sink.Emit(e)
}

// AbortStats snapshots the fetcher's cumulative abort counters.
type AbortStats struct {
	// Aborts counts chunks abandoned mid-flight as doomed.
	Aborts int64
	// WastedBytes counts payload discarded by those aborts.
	WastedBytes int64
}

// AbortStats returns the fetcher's cumulative doomed-chunk counters.
func (f *Fetcher) AbortStats() AbortStats {
	return AbortStats{Aborts: f.abort.aborts.Load(), WastedBytes: f.abort.wastedBytes.Load()}
}

// PredictedRate returns the fetcher's live per-path service-rate
// forecast in bytes/s (0 before any sample), the number the Streamer's
// downgrade chooser feeds into fitLevel.
func (f *Fetcher) PredictedRate() float64 { return f.hedge.predictedRate() }

// fitLevel picks the highest rendition at or below maxLevel whose chunk
// can be delivered inside windowLeft at the given best-case aggregate
// rate (bytes/s across all engaged paths). It returns -1 when not even
// the lowest rendition fits — the caller is going to rebuffer and should
// fetch the lowest level anyway. Pure: deterministic under a frozen
// clock given the same inputs.
func fitLevel(video *dash.Video, sizes [][]int64, index, maxLevel int, rate float64, windowLeft time.Duration) int {
	if rate <= 0 || windowLeft <= 0 {
		return -1
	}
	budget := rate * windowLeft.Seconds()
	for l := maxLevel; l >= 0; l-- {
		size := video.ChunkSize(index, l)
		if sizes != nil {
			size = sizes[l][index]
		}
		if float64(size) <= budget {
			return l
		}
	}
	return -1
}

// restoreAfterAbort brings the paths back to service after an abort cut
// their connections: each live path is redialled (best effort — a
// failure marks the path down exactly as any dial failure would) and any
// stale cancellation flag is consumed so the next fetch's first error is
// classified honestly.
func (f *Fetcher) restoreAfterAbort(pol RetryPolicy) {
	for _, pc := range f.paths {
		if pc.isDown() {
			continue
		}
		pc.takeCancelled()
		pc.redial(pol) //nolint:errcheck // best effort; a failure marks the path down
	}
}

// doomError wraps ErrChunkDoomed with the chunk coordinates.
func doomError(index, level int) error {
	return fmt.Errorf("netmp: chunk %d level %d: %w", index, level, ErrChunkDoomed)
}
