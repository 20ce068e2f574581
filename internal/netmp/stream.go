package netmp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// Streamer is a real-time DASH playback loop over the multi-socket
// Fetcher: the wall clock drains the buffer, a dash.RateAdapter picks
// levels, and each chunk gets an MP-DASH deadline (core.ChunkDeadline:
// duration- or rate-based with the §5.1 extension) that the fetcher
// enforces by engaging secondary sockets only under pressure. It is the
// end-to-end userspace analogue of the kernel prototype.
//
// The loop degrades rather than dies: a chunk that exhausts its retry
// budget is refetched once at the lowest level (smallest payload, best
// odds) before being counted as a stall and skipped, and the session
// continues on one path when the other is down. Only ErrAllPathsDown —
// or a fatal protocol error — ends a session early, and even then the
// partial result is returned alongside the error.
type Streamer struct {
	Fetcher *Fetcher
	ABR     dash.RateAdapter
	// RateBased selects the rate-based deadline policy (else duration).
	RateBased bool
	// BufferCap defaults to 8 chunk durations.
	BufferCap time.Duration
	// PhiFrac is the deadline-extension threshold as a fraction of
	// BufferCap (default 0.8).
	PhiFrac float64
	// OnChunk, when set, is called synchronously after every chunk
	// resolves: landed chunks report whether they missed their playback
	// deadline, and lost chunks (lifeline exhausted) report missed=true.
	// The swarm's recovery tracker feeds its rolling miss-rate window —
	// and hence MTTR measurement — from this hook. Must be fast and
	// goroutine-safe: many sessions may share one callback.
	OnChunk func(index int, missed bool)

	// Tracer, when set, records one span trace per chunk (deadline,
	// fetch/segment/redial/hedge/abort spans, terminal verdict) through
	// the fetcher; nil is the off switch and costs one nil check per
	// chunk. Many sessions may share one Tracer — TraceSession keeps
	// their trace IDs distinct (and deterministic under a seeded plan).
	Tracer       *obs.Tracer
	TraceSession int

	stop atomic.Bool
	sobs *streamerObs // telemetry handles (nil = off); set by Instrument
}

// Stop requests a graceful end of the session: the loop finishes the
// in-flight chunk, then returns the partial result with Stopped set.
// Safe to call from any goroutine (e.g. a signal handler).
func (s *Streamer) Stop() { s.stop.Store(true) }

// StreamResult summarizes a real-time playback.
type StreamResult struct {
	Chunks          int
	PrimaryBytes    int64
	SecondaryBytes  int64
	Stalls          int
	StallTime       time.Duration
	QualitySwitches int
	AvgLevel        float64
	Wall            time.Duration
	AllVerified     bool

	// Retries counts failed range-request attempts absorbed by the path
	// supervisor across the session.
	Retries int64
	// Redials counts reconnect attempts (successful or not).
	Redials int64
	// Requeued counts segments completed by the other path after a local
	// retry budget ran out.
	Requeued int64
	// WastedBytes counts payload discarded from failed/corrupt attempts.
	WastedBytes int64
	// FaultsSurvived totals the transient faults the session absorbed
	// without losing a chunk (retries plus requeues).
	FaultsSurvived int64
	// Refetches counts chunks refetched at the lowest level after their
	// retry budget ran out at the selected level.
	Refetches int
	// LostChunks counts chunks abandoned after the lowest-level lifeline
	// refetch also failed; each one is accounted as a stall.
	LostChunks int
	// DegradedTime is how long the session has run with a path down
	// (single-path mode).
	DegradedTime time.Duration

	// Aborts counts chunks abandoned mid-flight as doomed: the fetcher
	// predicted a deadline miss even with all paths engaged and cut the
	// transfer rather than ride it out.
	Aborts int
	// Downgrades counts abort recoveries: the chunk re-requested at the
	// highest lower rendition the predictor said still fits the window.
	Downgrades int
	// AbortWastedBytes counts the partial payload those aborts discarded.
	AbortWastedBytes int64
	// WastedPrimaryBytes / WastedSecondaryBytes split, per path, the
	// payload that bought no on-time video: partial bytes of aborted and
	// failed chunks plus the full payload of deadline-missed chunks. The
	// swarm maps the preference-deprioritized path's share to wasted
	// cellular bytes.
	WastedPrimaryBytes   int64
	WastedSecondaryBytes int64

	// StartupDelay is the time from session start to the first chunk
	// being fully fetched — the join delay a viewer experiences before
	// playback can begin.
	StartupDelay time.Duration
	// DeadlineMisses counts steady-state chunks delivered after their
	// α·D window. The startup chunk is excluded: its deadline is a
	// synthetic minimal value that exists only to engage both paths.
	DeadlineMisses int

	// Failovers counts origin switches across the session (origin tier).
	Failovers int64
	// HedgesIssued / HedgesWon / HedgesCancelled summarize hedged
	// requests: duplicates launched, segments delivered by the hedge,
	// and race losers aborted.
	HedgesIssued    int64
	HedgesWon       int64
	HedgesCancelled int64
	// HedgeWastedBytes counts payload spent on hedge losers.
	HedgeWastedBytes int64
	// Stopped is true when the session ended early via Streamer.Stop.
	Stopped bool
}

// Stream plays n chunks (0 = whole video) and blocks until done. On an
// unrecoverable error (all paths down, fatal protocol error) it returns
// the partial result alongside the error.
func (s *Streamer) Stream(n int) (*StreamResult, error) {
	if s.Fetcher == nil || s.ABR == nil {
		return nil, fmt.Errorf("netmp: streamer needs a fetcher and an ABR")
	}
	video := s.Fetcher.Video
	if n <= 0 || n > video.NumChunks {
		n = video.NumChunks
	}
	bufferCap := s.BufferCap
	if bufferCap == 0 {
		bufferCap = 8 * video.ChunkDuration
	}
	phiFrac := s.PhiFrac
	if phiFrac == 0 {
		phiFrac = 0.8
	}

	res := &StreamResult{AllVerified: true}
	clk := s.Fetcher.clk
	start := clk.now()
	var buffer time.Duration
	playing := false
	lastLevel := -1
	var throughputs []float64
	var levelSum float64

	finish := func() {
		res.Wall = clk.now().Sub(start)
		if res.Chunks > 0 {
			res.AvgLevel = levelSum / float64(res.Chunks)
		}
		res.FaultsSurvived = res.Retries + res.Requeued
		res.DegradedTime = s.Fetcher.DegradedFor()
	}

	for i := 0; i < n; i++ {
		if s.stop.Load() {
			res.Stopped = true
			finish()
			return res, nil
		}
		// Wait for buffer room (playback drains in real time).
		if playing && buffer > bufferCap-video.ChunkDuration {
			wait := buffer - (bufferCap - video.ChunkDuration)
			time.Sleep(wait)
			buffer -= wait
		}

		st := dash.PlayerState{
			Now:              clk.now().Sub(start),
			ChunkIndex:       i,
			LastLevel:        lastLevel,
			Buffer:           buffer,
			BufferCap:        bufferCap,
			Video:            video,
			ChunkThroughputs: throughputs,
		}
		level := s.ABR.SelectLevel(st)
		if level < 0 {
			level = 0
		}
		if level > video.HighestLevel() {
			level = video.HighestLevel()
		}

		size := s.Fetcher.chunkSize(i, level)
		phi := time.Duration(phiFrac * float64(bufferCap))
		deadline, ext := core.ChunkDeadline(s.RateBased, size, video.Levels[level].AvgBitrateMbps*1e6, video.ChunkDuration, buffer, phi)
		if ext > 0 {
			s.sobs.emitExtend(i, level, ext, buffer, phi)
		}
		if !playing {
			// Startup: no buffer cushion; fetch as fast as possible by
			// declaring a minimal deadline so the secondary path helps.
			deadline = time.Millisecond
		}

		// One trace per chunk: opened with the selected rendition and the
		// deadline, installed on the fetcher so the workers' spans attach,
		// and finished below with the chunk's terminal verdict.
		ct := s.Tracer.StartTrace(s.TraceSession, i, level)
		ct.SetDeadline(deadline)
		s.Fetcher.SetTrace(ct)

		dlStart := clk.now()
		fr, err := s.Fetcher.FetchChunk(i, level, deadline)
		// Doomed-chunk downgrade loop: an abort means even best-case
		// all-path delivery could not land this rendition in time, so
		// re-request at the highest rendition the predictor says still
		// fits what is left of the window — the lowest when nothing fits
		// (the stall, if any, falls out of the buffer math below). The
		// loop terminates because the fetcher never dooms level 0 and
		// fitLevel only ever moves down.
		for err != nil && errors.Is(err, ErrChunkDoomed) {
			res.Aborts++
			res.AbortWastedBytes += fr.PrimaryBytes + fr.SecondaryBytes
			absorbFaults(res, fr)
			window := deadline - clk.now().Sub(dlStart)
			if window < time.Millisecond {
				window = time.Millisecond
			}
			aggRate := s.Fetcher.PredictedRate() * float64(s.Fetcher.livePaths())
			next := fitLevel(video, s.Fetcher.Sizes, i, level-1, aggRate, window)
			if next < 0 {
				next = 0
			}
			res.Downgrades++
			s.sobs.emitDowngrade(i, level, next, aggRate, window)
			ct.MarkBad(obs.CatDowngrade)
			dsp := ct.StartSpan(obs.CatDowngrade, "downgrade")
			level = next
			size = s.Fetcher.chunkSize(i, level)
			fr, err = s.Fetcher.FetchChunk(i, level, window)
			dsp.End()
		}
		if err != nil && errors.Is(err, ErrChunkExhausted) && level != 0 {
			// Lifeline: one refetch at the lowest level before declaring
			// the chunk lost.
			absorbFaults(res, fr)
			res.Refetches++
			s.sobs.emitRefetch(i, level)
			rsp := ct.StartSpan(obs.CatRefetch, "refetch")
			level = 0
			size = s.Fetcher.chunkSize(i, level)
			fr, err = s.Fetcher.FetchChunk(i, level, deadline)
			rsp.End()
		}
		if err != nil {
			absorbFaults(res, fr)
			if errors.Is(err, ErrChunkExhausted) {
				// Chunk lost even at the lowest level: account a stall of
				// one chunk duration and move on.
				res.LostChunks++
				res.Stalls++
				res.StallTime += video.ChunkDuration
				s.sobs.emitLost(i)
				s.sobs.emitStall(i, video.ChunkDuration)
				ct.Event(obs.CatStall, "stall")
				ct.Finish(obs.TraceLost)
				s.Fetcher.SetTrace(nil)
				if s.OnChunk != nil {
					s.OnChunk(i, true)
				}
				continue
			}
			ct.Finish(obs.TraceFailed)
			s.Fetcher.SetTrace(nil)
			finish()
			return res, fmt.Errorf("netmp: chunk %d: %w", i, err)
		}
		dl := clk.now().Sub(dlStart)

		res.PrimaryBytes += fr.PrimaryBytes
		res.SecondaryBytes += fr.SecondaryBytes
		absorbCounters(res, fr)
		if !fr.Verified {
			res.AllVerified = false
		}
		missed := playing && fr.MissedBy > 0
		if missed {
			ct.SetOverrun(fr.MissedBy)
			res.DeadlineMisses++
			// A late chunk's payload bought no on-time video: charge it
			// to the per-path waste split the swarm's cellular-byte
			// accounting reads.
			res.WastedPrimaryBytes += fr.PrimaryBytes
			res.WastedSecondaryBytes += fr.SecondaryBytes
		}
		if s.OnChunk != nil {
			s.OnChunk(i, missed)
		}
		if dl > 0 {
			throughputs = append(throughputs, float64(size*8)/dl.Seconds())
		}
		if playing {
			if buffer >= dl {
				buffer -= dl
			} else {
				res.Stalls++
				res.StallTime += dl - buffer
				s.sobs.emitStall(i, dl-buffer)
				ct.Event(obs.CatStall, "stall")
				buffer = 0
			}
		}
		buffer += video.ChunkDuration
		if buffer > bufferCap {
			buffer = bufferCap
		}
		s.sobs.setBuffer(buffer)
		if missed {
			ct.Finish(obs.TraceMissed)
		} else {
			ct.Finish(obs.TraceOK)
		}
		s.Fetcher.SetTrace(nil)
		if !playing {
			res.StartupDelay = clk.now().Sub(start)
		}
		playing = true
		if lastLevel >= 0 && level != lastLevel {
			res.QualitySwitches++
		}
		lastLevel = level
		levelSum += float64(level)
		res.Chunks++
	}
	finish()
	return res, nil
}

// absorbCounters folds one fetch's fault and origin-tier counters
// (retries, redials, requeues, fault waste, failovers, hedges) into the
// session totals — every fetch, landed or not.
func absorbCounters(res *StreamResult, fr *FetchResult) {
	res.Retries += fr.Retries
	res.Redials += fr.Redials
	res.Requeued += fr.Requeued
	res.WastedBytes += fr.WastedBytes
	res.Failovers += fr.Failovers
	res.HedgesIssued += fr.HedgesIssued
	res.HedgesWon += fr.HedgesWon
	res.HedgesCancelled += fr.HedgesCancelled
	res.HedgeWastedBytes += fr.HedgeWastedBytes
}

// absorbFaults folds a fetch that delivered no chunk (failed or aborted)
// into the session totals: its counters, and its partial payload as
// waste on the path that carried it.
func absorbFaults(res *StreamResult, fr *FetchResult) {
	if fr == nil {
		return
	}
	absorbCounters(res, fr)
	res.WastedBytes += fr.PrimaryBytes + fr.SecondaryBytes
	res.WastedPrimaryBytes += fr.PrimaryBytes
	res.WastedSecondaryBytes += fr.SecondaryBytes
}
