// Package abr implements the DASH rate-adaptation algorithms the paper
// evaluates — GPAC's built-in throughput rule, FESTIVE, BBA-2, and the
// paper's cellular-friendly BBA-C — plus MPC (the §5.2.3 extension), and
// the MP-DASH video adapter (§5) that couples any of them to the
// deadline-aware scheduler in internal/core.
package abr

import (
	"mpdash/internal/dash"
)

// GPAC is the GPAC player's stock throughput-based rule: estimate the
// bandwidth from the last chunk's download throughput and pick the highest
// encoding bitrate below it (§6).
type GPAC struct{}

// NewGPAC returns the GPAC algorithm.
func NewGPAC() *GPAC { return &GPAC{} }

// Name implements dash.RateAdapter.
func (g *GPAC) Name() string { return "GPAC" }

// SelectLevel implements dash.RateAdapter.
func (g *GPAC) SelectLevel(st dash.PlayerState) int {
	est := st.EffectiveEstimateBps()
	if est <= 0 {
		return 0 // startup: lowest rung
	}
	l := st.Video.LevelForThroughput(est)
	if l < 0 {
		return 0
	}
	return l
}
