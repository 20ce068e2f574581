package abr

import (
	"mpdash/internal/dash"
	"mpdash/internal/stats"
)

// SVAA implements the smooth video adaptation of Tian & Liu (CoNEXT'12,
// cited by the paper's related work): a buffer-feedback controller that
// trades responsiveness for smoothness. The target rate is the throughput
// estimate scaled by a buffer-feedback factor F(B) = 2·B/(B+Bref) — below
// the reference buffer the player undershoots the network to refill,
// above it the player may overshoot slightly — with switches damped to
// one rung at a time and up-switches gated by a run-length counter, the
// paper's "smoothness and responsiveness trade-off".
type SVAA struct {
	// BufferRefFrac is the reference buffer level as a fraction of
	// capacity (default 0.5).
	BufferRefFrac float64
	// HistoryLen feeds the harmonic-mean throughput estimate.
	HistoryLen int
	// UpRunLength is how many consecutive chunks must favour an
	// up-switch before it happens (smoothness gate, default 2).
	UpRunLength int

	upRun int
}

// NewSVAA returns the controller with the original shape.
func NewSVAA() *SVAA {
	return &SVAA{BufferRefFrac: 0.5, HistoryLen: 10, UpRunLength: 2}
}

// Name implements dash.RateAdapter.
func (a *SVAA) Name() string { return "SVAA" }

func (a *SVAA) estimate(st dash.PlayerState) float64 {
	if st.TransportEstimateBps > 0 {
		return st.TransportEstimateBps
	}
	hist := st.ChunkThroughputs
	if len(hist) > a.HistoryLen {
		hist = hist[len(hist)-a.HistoryLen:]
	}
	return stats.HarmonicMean(hist)
}

// SelectLevel implements dash.RateAdapter.
func (a *SVAA) SelectLevel(st dash.PlayerState) int {
	if st.LastLevel < 0 {
		a.upRun = 0
		return 0
	}
	est := a.estimate(st)
	if est <= 0 {
		return st.LastLevel
	}
	bref := a.BufferRefFrac * st.BufferCap.Seconds()
	b := st.Buffer.Seconds()
	factor := 2 * b / (b + bref)
	target := st.Video.LevelForThroughput(est * factor)
	if target < 0 {
		target = 0
	}
	cur := st.LastLevel
	switch {
	case target > cur:
		a.upRun++
		if a.upRun >= a.UpRunLength {
			a.upRun = 0
			return cur + 1
		}
		return cur
	case target < cur:
		a.upRun = 0
		return cur - 1
	default:
		a.upRun = 0
		return cur
	}
}
