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

// Streamer is a transport for dash.Player: it runs the player's loop in
// wall time over the multi-socket Fetcher. It adds what a socket stack
// needs and the simulator does not: each chunk gets an MP-DASH deadline
// (core.ChunkDeadline: duration- or rate-based with the §5.1 extension,
// 1 ms for the start-up chunk so every path helps) that the fetcher
// enforces by engaging secondary sockets only under pressure. It is the
// end-to-end userspace analogue of the kernel prototype.
//
// A session degrades rather than dies: a doomed chunk is re-requested at
// a rendition that still fits its window, a chunk that exhausts its
// retry budget is refetched once at the lowest level (smallest payload,
// best odds) before it is lost, and the session continues on one path
// when the other is down. Only ErrAllPathsDown — or a fatal protocol
// error — ends a session early, and even then the partial result is
// returned alongside the error.
type Streamer struct {
	Fetcher *Fetcher
	ABR     dash.RateAdapter
	// RateBased selects the rate-based deadline policy (else duration).
	// The buffer holds 8 chunk durations, and the deadline-extension
	// threshold Φ sits at core.PhiFrac of it.
	RateBased bool
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
	// It, the two per-path waste counts below and HedgeWastedBytes are
	// disjoint: a byte that bought no on-time video is in one of them.
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
	t := &session{s: s, f: s.Fetcher, start: s.Fetcher.clk.now(), res: StreamResult{AllVerified: true}}
	p, err := dash.NewPlayerOver(t, video, s.ABR)
	if err != nil {
		return nil, err
	}
	p.BufferCap = 8 * video.ChunkDuration
	rep, err := p.Run(n)
	res := &t.res
	res.Chunks, res.Stalls, res.StallTime = rep.Chunks, rep.Stalls, rep.StallTime
	res.QualitySwitches, res.StartupDelay = rep.QualitySwitches, rep.StartupDelay
	if res.Chunks > 0 {
		res.AvgLevel = float64(t.levels) / float64(res.Chunks)
	}
	res.Wall = t.f.clk.now().Sub(t.start)
	res.FaultsSurvived = res.Retries + res.Requeued
	res.DegradedTime = t.f.DegradedFor()
	return res, err
}

// session is one Stream call's transport: the player's clock is the
// fetcher's, a buffer wait sleeps, and each chunk is fetched under its
// MP-DASH deadline with the downgrade and the lifeline. The transport
// estimate is 0: the socket stack exposes none yet, so the ABR sees the
// player's own.
type session struct {
	s      *Streamer
	f      *Fetcher
	start  time.Time
	res    StreamResult
	ct     *obs.Trace   // the chunk in flight's trace
	fr     *FetchResult // the chunk in flight's landed fetch
	levels int          // delivered levels of the chunks played, summed
}

func (t *session) Now() time.Duration   { return t.f.clk.now().Sub(t.start) }
func (t *session) Play(d time.Duration) { time.Sleep(d) }
func (t *session) Estimate() float64    { return 0 }

func (t *session) Stopped() bool {
	t.res.Stopped = t.s.stop.Load()
	return t.res.Stopped
}

// Fetch fetches one chunk under its deadline. Φ sits at core.PhiFrac of
// the buffer cap.
func (t *session) Fetch(st dash.PlayerState, meta dash.ChunkMeta) (dash.ChunkResult, error) {
	s, f, res := t.s, t.f, &t.res
	video, i, level := st.Video, meta.Index, meta.Level
	phi := time.Duration(core.PhiFrac * float64(st.BufferCap))
	deadline, ext := core.ChunkDeadline(s.RateBased, f.chunkSize(i, level), meta.NominalBps, meta.Duration, st.Buffer, phi)
	if ext > 0 {
		s.sobs.emitExtend(i, level, ext, st.Buffer, phi)
	}
	if st.LastLevel < 0 {
		// Startup: no buffer cushion; fetch as fast as possible by
		// declaring a minimal deadline so the secondary path helps.
		deadline = time.Millisecond
	}

	// One trace per chunk: opened with the selected rendition and the
	// deadline, installed on the fetcher so the workers' spans attach,
	// and finished by Settle with the chunk's terminal verdict.
	ct := s.Tracer.StartTrace(s.TraceSession, i, level)
	ct.SetDeadline(deadline)
	f.SetTrace(ct)
	t.ct = ct

	dlStart := f.clk.now()
	fr, err := f.FetchChunk(i, level, deadline)
	// Doomed-chunk downgrade loop: an abort means even best-case
	// all-path delivery could not land this rendition in time, so
	// re-request at the highest rendition the predictor says still
	// fits what is left of the window — the lowest when nothing fits
	// (the stall, if any, falls out of the player's buffer math). The
	// loop terminates because the fetcher never dooms level 0 and
	// fitLevel only ever moves down.
	for err != nil && errors.Is(err, ErrChunkDoomed) {
		res.Aborts++
		res.AbortWastedBytes += fr.PrimaryBytes + fr.SecondaryBytes
		absorbFaults(res, fr)
		window := deadline - f.clk.now().Sub(dlStart)
		if window < time.Millisecond {
			window = time.Millisecond
		}
		aggRate := f.PredictedRate() * float64(f.livePaths())
		next := fitLevel(video, f.Sizes, i, level-1, aggRate, window)
		if next < 0 {
			next = 0
		}
		res.Downgrades++
		s.sobs.emitDowngrade(i, level, next, aggRate, window)
		ct.MarkBad(obs.CatDowngrade)
		dsp := ct.StartSpan(obs.CatDowngrade, "downgrade")
		level = next
		fr, err = f.FetchChunk(i, level, window)
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
		fr, err = f.FetchChunk(i, level, deadline)
		rsp.End()
	}
	meta = video.Chunk(i, level)
	meta.Size = f.chunkSize(i, level)
	if err != nil {
		absorbFaults(res, fr)
		if errors.Is(err, ErrChunkExhausted) {
			res.LostChunks++
			return dash.ChunkResult{Meta: meta, Verdict: dash.Lost}, nil
		}
		ct.Finish(obs.TraceFailed)
		f.SetTrace(nil)
		return dash.ChunkResult{}, fmt.Errorf("netmp: chunk %d: %w", i, err)
	}
	res.PrimaryBytes += fr.PrimaryBytes
	res.SecondaryBytes += fr.SecondaryBytes
	absorbCounters(res, fr)
	if !fr.Verified {
		res.AllVerified = false
	}
	t.fr = fr
	if fr.MissedBy > 0 {
		return dash.ChunkResult{Meta: meta, Verdict: dash.Late}, nil
	}
	return dash.ChunkResult{Meta: meta}, nil
}

// Settle charges a late chunk's payload as waste, reports the chunk to
// OnChunk, telemetry and its trace, and finishes the trace.
func (t *session) Settle(r dash.ChunkResult) {
	s, res, ct, i := t.s, &t.res, t.ct, r.Meta.Index
	if r.Verdict == dash.Lost {
		s.sobs.emitLost(i)
		s.sobs.emitStall(i, r.StallTime)
		ct.Event(obs.CatStall, "stall")
		ct.Finish(obs.TraceLost)
		t.f.SetTrace(nil)
		if s.OnChunk != nil {
			s.OnChunk(i, true)
		}
		return
	}
	missed := r.Verdict == dash.Late
	if missed {
		ct.SetOverrun(t.fr.MissedBy)
		res.DeadlineMisses++
		// A late chunk's payload bought no on-time video: charge it
		// to the per-path waste split the swarm's cellular-byte
		// accounting reads.
		res.WastedPrimaryBytes += t.fr.PrimaryBytes
		res.WastedSecondaryBytes += t.fr.SecondaryBytes
	}
	if s.OnChunk != nil {
		s.OnChunk(i, missed)
	}
	if r.Stalled {
		s.sobs.emitStall(i, r.StallTime)
		ct.Event(obs.CatStall, "stall")
	}
	s.sobs.setBuffer(r.BufferAfter)
	if missed {
		ct.Finish(obs.TraceMissed)
	} else {
		ct.Finish(obs.TraceOK)
	}
	t.f.SetTrace(nil)
	t.levels += r.Meta.Level
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
	res.WastedPrimaryBytes += fr.PrimaryBytes
	res.WastedSecondaryBytes += fr.SecondaryBytes
}
