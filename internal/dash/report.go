package dash

import "time"

// Report aggregates one playback session the way the paper reports its
// experiments: stalls, playback bitrate, per-path (cellular) data usage,
// and quality switches. SteadyState* fields cover the last 80% of chunks,
// the window §7.3 reports statistics on.
type Report struct {
	VideoName string
	Algorithm string

	// Chunks counts the chunks played; a Lost one is not.
	Chunks int
	// AvgBitrateMbps is the mean nominal encoding bitrate over all chunks.
	AvgBitrateMbps float64
	// SteadyStateAvgBitrateMbps covers the last 80% of chunks.
	SteadyStateAvgBitrateMbps float64
	// Stalls and StallTime cover the whole session.
	Stalls    int
	StallTime time.Duration
	// StartupDelay is the time from the session's start to the first
	// chunk landing — when playback can begin.
	StartupDelay time.Duration
	// QualitySwitches counts chunk-boundary level changes.
	QualitySwitches int
	// PathBytes is the total per-path byte split.
	PathBytes map[string]int64
	// SteadyStatePathBytes covers the last 80% of chunks.
	SteadyStatePathBytes map[string]int64
	// Results carries the raw per-chunk data for analysis.
	Results []ChunkResult
}

// steadyStart returns the first chunk index of the last-80% window.
func steadyStart(n int) int { return n / 5 }

// buildReport folds a session's results. A Lost chunk counts only as its
// stall; start-up delay runs from start, the session clock when Run
// began, to the first chunk that landed.
func buildReport(v *Video, algo string, start time.Duration, results []ChunkResult) *Report {
	r := &Report{
		VideoName:            v.Name,
		Algorithm:            algo,
		PathBytes:            map[string]int64{},
		SteadyStatePathBytes: map[string]int64{},
		Results:              results,
	}
	ss := steadyStart(len(results))
	var sumAll, sumSS float64
	last := -1
	for i, res := range results {
		if res.Stalled {
			r.Stalls++
			r.StallTime += res.StallTime
		}
		if res.Verdict == Lost {
			continue
		}
		if r.Chunks == 0 {
			r.StartupDelay = res.End - start
		}
		r.Chunks++
		sumAll += res.Meta.NominalBps
		if i >= ss {
			sumSS += res.Meta.NominalBps
		}
		if last >= 0 && res.Meta.Level != last {
			r.QualitySwitches++
		}
		last = res.Meta.Level
		for name, b := range res.PathBytes {
			r.PathBytes[name] += b
			if i >= ss {
				r.SteadyStatePathBytes[name] += b
			}
		}
	}
	if r.Chunks == 0 {
		return r
	}
	r.AvgBitrateMbps = sumAll / float64(r.Chunks) / 1e6
	if n := len(results) - ss; n > 0 {
		r.SteadyStateAvgBitrateMbps = sumSS / float64(n) / 1e6
	}
	return r
}

// Events is the session's event log, in time order: per chunk a start
// when its fetch began, then, when it ended, a stall if playback ran dry,
// and for a chunk that landed a resume if playback (re)started, a quality
// switch if its level differs from the last one played, and a done.
func (r *Report) Events() []Event {
	events := make([]Event, 0, 2*len(r.Results))
	last := -1
	for _, res := range r.Results {
		at := func(t time.Duration, k EventKind) {
			events = append(events, Event{Time: t, Kind: k, Chunk: res.Meta.Index, Level: res.Meta.Level})
		}
		at(res.Start, EventChunkStart)
		if res.Stalled {
			at(res.End, EventStall)
		}
		if res.Verdict == Lost {
			continue
		}
		if res.Stalled || (last < 0 && res.Meta.Index > 0) {
			at(res.End, EventResume)
		}
		if last >= 0 && res.Meta.Level != last {
			at(res.End, EventQualitySwitch)
		}
		at(res.End, EventChunkDone)
		last = res.Meta.Level
	}
	return events
}

// QoEWeights parameterize the standard linear QoE model (Yin et al.):
// average bitrate minus switch-magnitude and rebuffering penalties.
type QoEWeights struct {
	// LambdaSwitch penalizes the mean per-chunk bitrate change (Mbps).
	LambdaSwitch float64
	// MuRebufferPerSec penalizes stall seconds (in Mbps-equivalents).
	MuRebufferPerSec float64
}

// DefaultQoEWeights are the weights used across the reproduction's
// reports (rebuffering dominates, as in the MPC paper).
func DefaultQoEWeights() QoEWeights {
	return QoEWeights{LambdaSwitch: 1, MuRebufferPerSec: 3}
}

// QoE computes the session's linear QoE score (higher is better).
func (r *Report) QoE(w QoEWeights) float64 {
	if len(r.Results) == 0 {
		return 0
	}
	var switchMbps float64
	for i := 1; i < len(r.Results); i++ {
		d := r.Results[i].Meta.NominalBps - r.Results[i-1].Meta.NominalBps
		if d < 0 {
			d = -d
		}
		switchMbps += d / 1e6
	}
	n := float64(len(r.Results))
	return r.AvgBitrateMbps - w.LambdaSwitch*switchMbps/n - w.MuRebufferPerSec*r.StallTime.Seconds()
}

// CellularBytes returns the steady-state byte count on the named path
// (the paper's headline "bytes over LTE" metric).
func (r *Report) CellularBytes(path string) int64 { return r.SteadyStatePathBytes[path] }

// TotalBytes returns steady-state bytes summed over paths.
func (r *Report) TotalBytes() int64 {
	var s int64
	for _, b := range r.SteadyStatePathBytes {
		s += b
	}
	return s
}

// CellularFraction returns the steady-state fraction of bytes on the
// named path.
func (r *Report) CellularFraction(path string) float64 {
	t := r.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(r.SteadyStatePathBytes[path]) / float64(t)
}
