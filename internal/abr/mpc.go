package abr

import (
	"mpdash/internal/dash"
	"mpdash/internal/stats"
)

// MPC implements the model-predictive-control hybrid of Yin et al.
// (SIGCOMM'15), which the paper lists as future work for MP-DASH
// integration (§5.2.3). For each chunk it enumerates level sequences over
// a short horizon, simulates the buffer forward under a harmonic-mean
// throughput prediction, and picks the first step of the sequence
// maximizing QoE = Σ bitrate − λ·Σ|switches| − μ·rebuffer.
type MPC struct {
	// Horizon is the lookahead depth in chunks (5 in the original).
	Horizon int
	// HistoryLen feeds the harmonic-mean predictor.
	HistoryLen int
	// LambdaSwitch and MuRebuffer are the QoE penalty weights, in the
	// units of Mbps and Mbps-per-second-of-stall respectively.
	LambdaSwitch float64
	MuRebuffer   float64
}

// NewMPC returns MPC with the original paper's shape (horizon 5,
// rebuffering heavily penalized).
func NewMPC() *MPC {
	return &MPC{Horizon: 5, HistoryLen: 5, LambdaSwitch: 1, MuRebuffer: 12}
}

// Name implements dash.RateAdapter.
func (m *MPC) Name() string { return "MPC" }

// predict returns the throughput prediction (bits/s).
func (m *MPC) predict(st dash.PlayerState) float64 {
	if st.TransportEstimateBps > 0 {
		return st.TransportEstimateBps
	}
	hist := st.ChunkThroughputs
	if len(hist) > m.HistoryLen {
		hist = hist[len(hist)-m.HistoryLen:]
	}
	return stats.HarmonicMean(hist)
}

// SelectLevel implements dash.RateAdapter.
func (m *MPC) SelectLevel(st dash.PlayerState) int {
	if st.LastLevel < 0 {
		return 0
	}
	bw := m.predict(st)
	if bw <= 0 {
		return 0
	}
	v := st.Video
	horizon := m.Horizon
	if rem := v.NumChunks - st.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		return st.LastLevel
	}

	nLevels := len(v.Levels)
	best, bestLevel := -1e18, 0
	seq := make([]int, horizon)
	var walk func(depth int, buffer float64, prev int, qoe float64)
	walk = func(depth int, buffer float64, prev int, qoe float64) {
		if depth == horizon {
			if qoe > best {
				best = qoe
				bestLevel = seq[0]
			}
			return
		}
		idx := st.ChunkIndex + depth
		for l := 0; l < nLevels; l++ {
			rate := v.Levels[l].AvgBitrateMbps
			size := float64(v.ChunkSize(idx, l))
			dl := size * 8 / bw
			nb := buffer
			stall := 0.0
			if dl > nb {
				stall = dl - nb
				nb = 0
			} else {
				nb -= dl
			}
			nb += v.ChunkDuration.Seconds()
			if capSec := st.BufferCap.Seconds(); nb > capSec {
				nb = capSec
			}
			q := qoe + rate - m.MuRebuffer*stall
			if prev >= 0 {
				diff := rate - v.Levels[prev].AvgBitrateMbps
				if diff < 0 {
					diff = -diff
				}
				q -= m.LambdaSwitch * diff
			}
			seq[depth] = l
			walk(depth+1, nb, l, q)
		}
	}
	walk(0, st.Buffer.Seconds(), st.LastLevel, 0)
	return bestLevel
}
