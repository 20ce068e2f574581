package abr

import (
	"time"

	"mpdash/internal/dash"
)

// BBA implements buffer-based adaptation (Huang et al., SIGCOMM'14),
// configured as the paper's "full version (BBA-2)": a reservoir/cushion
// linear rate map with next-up/next-down hysteresis, plus the BBA-2
// startup phase that steps the rate up while the buffer is filling faster
// than it drains. Capped=true yields BBA-C, the paper's cellular-friendly
// variant (§5.2.2) that additionally bounds the selected bitrate by the
// measured multipath throughput to kill the Fig. 3 oscillation.
type BBA struct {
	// Reservoir is the buffer level below which the lowest rate is always
	// chosen.
	Reservoir time.Duration
	// UpperFrac is the buffer fraction at which the map reaches the top
	// rate (cushion spans Reservoir..UpperFrac*cap).
	UpperFrac float64
	// Capped enables the BBA-C throughput bound.
	Capped bool

	started bool // startup phase finished?
}

// NewBBA returns the paper's BBA-2 configuration scaled to the player's
// buffer: reservoir 8 s, cushion up to 90% of capacity.
func NewBBA() *BBA { return &BBA{Reservoir: 8 * time.Second, UpperFrac: 0.9} }

// NewBBAC returns BBA-C, the cellular-friendly capped variant.
func NewBBAC() *BBA {
	b := NewBBA()
	b.Capped = true
	return b
}

// Name implements dash.RateAdapter.
func (b *BBA) Name() string {
	if b.Capped {
		return "BBA-C"
	}
	return "BBA"
}

// mapRate returns f(B), the linear buffer→rate map in bits/s.
func (b *BBA) mapRate(st dash.PlayerState) float64 {
	v := st.Video
	rmin := v.Levels[0].AvgBitrateMbps * 1e6
	rmax := v.Levels[v.HighestLevel()].AvgBitrateMbps * 1e6
	upper := time.Duration(b.UpperFrac * float64(st.BufferCap))
	switch {
	case st.Buffer <= b.Reservoir:
		return rmin
	case st.Buffer >= upper:
		return rmax
	default:
		frac := float64(st.Buffer-b.Reservoir) / float64(upper-b.Reservoir)
		return rmin + frac*(rmax-rmin)
	}
}

// LevelLowerBuffer returns the lowest buffer occupancy at which the map
// still yields the given ladder level — the paper's e_l in §5.2.2, which
// the buffer-based MP-DASH adapter uses to place Ω.
func (b *BBA) LevelLowerBuffer(st dash.PlayerState, level int) time.Duration {
	v := st.Video
	if level <= 0 {
		return 0
	}
	rmin := v.Levels[0].AvgBitrateMbps * 1e6
	rmax := v.Levels[v.HighestLevel()].AvgBitrateMbps * 1e6
	rate := v.Levels[level].AvgBitrateMbps * 1e6
	upper := time.Duration(b.UpperFrac * float64(st.BufferCap))
	if rate >= rmax {
		// The top rung is only reached at the top of the cushion; its
		// hysteresis band in the map spans from the rung below.
		rate = v.Levels[level-1].AvgBitrateMbps * 1e6
	}
	frac := (rate - rmin) / (rmax - rmin)
	return b.Reservoir + time.Duration(frac*float64(upper-b.Reservoir))
}

// SelectLevel implements dash.RateAdapter.
func (b *BBA) SelectLevel(st dash.PlayerState) int {
	v := st.Video
	cur := st.LastLevel
	if cur < 0 {
		b.started = false
		return 0
	}

	var next int
	if !b.started {
		// BBA-2 startup: while the buffer is growing (each chunk
		// downloads faster than it plays), step up one rung per chunk;
		// leave startup once the steady-state map catches up to the
		// current rate or the buffer stops growing.
		est := st.EffectiveEstimateBps()
		growing := est > 2*v.Levels[cur].AvgBitrateMbps*1e6
		mapLevel := v.LevelForThroughput(b.mapRate(st))
		if mapLevel >= cur {
			b.started = true
			next = mapLevel
		} else if growing && cur < v.HighestLevel() {
			next = cur + 1
		} else {
			next = cur
		}
	} else {
		// Steady state: next-up/next-down hysteresis on f(B).
		rate := b.mapRate(st)
		next = cur
		if cur < v.HighestLevel() && rate >= v.Levels[cur+1].AvgBitrateMbps*1e6 {
			next = v.LevelForThroughput(rate)
		} else if rate < v.Levels[cur].AvgBitrateMbps*1e6 {
			l := v.LevelForThroughput(rate)
			if l < 0 {
				l = 0
			}
			next = l
		}
	}

	if b.Capped {
		// BBA-C: never select above what the network measurably
		// delivers (§5.2.2).
		if est := st.EffectiveEstimateBps(); est > 0 {
			capLevel := v.LevelForThroughput(est)
			if capLevel < 0 {
				capLevel = 0
			}
			if next > capLevel {
				next = capLevel
			}
		}
	}
	return next
}
