package abr

import (
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/stats"
)

// FastMPC is the table-driven variant of MPC the paper describes in
// §5.2.3: "instead of solving an optimization problem for each chunk, its
// online version looks up a pre-generated table to select the optimal
// bitrate based on the buffer level, previous bitrate, and throughput
// estimation." The table is enumerated offline over discretized (buffer,
// previous level, predicted throughput) states using the same QoE
// objective as MPC; SelectLevel is then O(1).
type FastMPC struct {
	// Inner carries the QoE weights and horizon used to build the table.
	Inner *MPC
	// BufferBins and ThroughputBins control table resolution.
	BufferBins     int
	ThroughputBins int
	// MaxThroughputMbps bounds the throughput axis.
	MaxThroughputMbps float64

	video *dash.Video
	// table[bufBin][prevLevel][tputBin] = ladder index.
	table [][][]uint8
}

// NewFastMPC builds the lookup table for one video. Table construction
// enumerates every discretized state once; playback decisions are lookups.
func NewFastMPC(video *dash.Video) *FastMPC {
	f := &FastMPC{
		Inner:             NewMPC(),
		BufferBins:        100,
		ThroughputBins:    50,
		MaxThroughputMbps: 2 * video.Levels[video.HighestLevel()].AvgBitrateMbps,
		video:             video,
	}
	f.build()
	return f
}

// Name implements dash.RateAdapter.
func (f *FastMPC) Name() string { return "FastMPC" }

// build enumerates the state space. The per-state planning reuses the
// exact MPC enumeration on a representative (mid-video) chunk index, so
// the table inherits MPC's behaviour up to discretization.
func (f *FastMPC) build() {
	v := f.video
	nLevels := len(v.Levels)
	bufferCap := dash.DefaultBufferCap
	f.table = make([][][]uint8, f.BufferBins)
	midChunk := v.NumChunks / 2
	for bi := 0; bi < f.BufferBins; bi++ {
		buffer := time.Duration(float64(bufferCap) * (float64(bi) + 0.5) / float64(f.BufferBins))
		f.table[bi] = make([][]uint8, nLevels)
		for prev := 0; prev < nLevels; prev++ {
			f.table[bi][prev] = make([]uint8, f.ThroughputBins)
			for ti := 0; ti < f.ThroughputBins; ti++ {
				tput := f.binThroughput(ti)
				st := dash.PlayerState{
					ChunkIndex:           midChunk,
					LastLevel:            prev,
					Buffer:               buffer,
					BufferCap:            bufferCap,
					Video:                v,
					TransportEstimateBps: tput,
				}
				f.table[bi][prev][ti] = uint8(f.Inner.SelectLevel(st))
			}
		}
	}
}

// binThroughput maps a bin index to its representative bits/s.
func (f *FastMPC) binThroughput(ti int) float64 {
	return f.MaxThroughputMbps * 1e6 * (float64(ti) + 0.5) / float64(f.ThroughputBins)
}

// SelectLevel implements dash.RateAdapter via table lookup.
func (f *FastMPC) SelectLevel(st dash.PlayerState) int {
	if st.LastLevel < 0 {
		return 0
	}
	bw := st.TransportEstimateBps
	if bw <= 0 {
		hist := st.ChunkThroughputs
		if len(hist) > f.Inner.HistoryLen {
			hist = hist[len(hist)-f.Inner.HistoryLen:]
		}
		bw = stats.HarmonicMean(hist)
	}
	if bw <= 0 {
		return 0
	}
	bi := int(float64(f.BufferBins) * float64(st.Buffer) / float64(st.BufferCap))
	bi = clampInt(bi, 0, f.BufferBins-1)
	ti := int(bw / (f.MaxThroughputMbps * 1e6) * float64(f.ThroughputBins))
	ti = clampInt(ti, 0, f.ThroughputBins-1)
	prev := clampInt(st.LastLevel, 0, len(f.video.Levels)-1)
	return int(f.table[bi][prev][ti])
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
