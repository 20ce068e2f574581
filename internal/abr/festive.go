package abr

import (
	"mpdash/internal/dash"
	"mpdash/internal/stats"
)

// FESTIVE (Jiang et al., CoNEXT'12) is the representative throughput-based
// algorithm of the paper: harmonic-mean bandwidth estimation for outlier
// robustness, an efficiency factor below 1 to avoid oscillation at ladder
// boundaries, and gradual (one-rung, delayed) up-switching for stability.
type FESTIVE struct {
	// HistoryLen is how many chunk throughputs feed the harmonic mean
	// (FESTIVE uses 20).
	HistoryLen int
	// Efficiency is the fraction of the estimate considered usable
	// (FESTIVE's "drop factor"; 0.85 in the original).
	Efficiency float64

	upCount int
}

// NewFESTIVE returns a FESTIVE instance with the original parameters.
func NewFESTIVE() *FESTIVE {
	return &FESTIVE{HistoryLen: 20, Efficiency: 0.85}
}

// Name implements dash.RateAdapter.
func (f *FESTIVE) Name() string { return "FESTIVE" }

// estimate returns the working bandwidth estimate: the transport override
// when MP-DASH exposes one (§5.2.1), else the harmonic mean of recent
// chunk throughputs.
func (f *FESTIVE) estimate(st dash.PlayerState) float64 {
	if st.TransportEstimateBps > 0 {
		return st.TransportEstimateBps
	}
	hist := st.ChunkThroughputs
	if len(hist) > f.HistoryLen {
		hist = hist[len(hist)-f.HistoryLen:]
	}
	return stats.HarmonicMean(hist)
}

// SelectLevel implements dash.RateAdapter: compute the reference level the
// bandwidth supports, then move at most one rung toward it, delaying
// up-switches longer at higher rungs (FESTIVE's gradual switching: a
// player at rung k waits k chunks before stepping up).
func (f *FESTIVE) SelectLevel(st dash.PlayerState) int {
	est := f.estimate(st)
	if st.LastLevel < 0 {
		// Startup: begin at the lowest rung like the original.
		f.upCount = 0
		return 0
	}
	target := st.Video.LevelForThroughput(f.Efficiency * est)
	if target < 0 {
		target = 0
	}
	cur := st.LastLevel
	switch {
	case target > cur:
		f.upCount++
		if f.upCount > cur {
			f.upCount = 0
			return cur + 1
		}
		return cur
	case target < cur:
		f.upCount = 0
		return cur - 1
	default:
		f.upCount = 0
		return cur
	}
}
