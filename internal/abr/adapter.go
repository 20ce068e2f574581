package abr

import (
	"fmt"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/mptcp"
	"mpdash/internal/obs"
)

// DeadlinePolicy selects how a chunk's deadline window D is derived (§5.1).
type DeadlinePolicy int

const (
	// DurationBased sets D to the chunk's playout duration, keeping the
	// buffer level stable in the short term.
	DurationBased DeadlinePolicy = iota
	// RateBased sets D to size/nominal-bitrate, maintaining the buffer in
	// the long run (and, per Fig. 7/8, saving more cellular data on
	// larger-than-average chunks).
	RateBased
)

// String implements fmt.Stringer.
func (p DeadlinePolicy) String() string {
	switch p {
	case DurationBased:
		return "duration"
	case RateBased:
		return "rate"
	default:
		return fmt.Sprintf("DeadlinePolicy(%d)", int(p))
	}
}

// Category tells the adapter which §5.2 threshold rules apply.
type Category int

const (
	// ThroughputBased covers GPAC, FESTIVE, MPC-style algorithms.
	ThroughputBased Category = iota
	// BufferBased covers BBA and BBA-C.
	BufferBased
)

// AdapterConfig parameterizes the MP-DASH video adapter.
type AdapterConfig struct {
	Policy   DeadlinePolicy
	Category Category
	// BBA must be set for BufferBased: the adapter reads the buffer→rate
	// map to place Ω at e_l + one chunk duration (§5.2.2).
	BBA *BBA
	// DisableExtension turns off deadline extension (ablation).
	DisableExtension bool
	// DisableLowBufferGuard turns off the Ω guard (ablation).
	DisableLowBufferGuard bool
}

// Adapter is the MP-DASH video adapter (§5): the glue between an
// off-the-shelf rate adaptation algorithm and the deadline-aware
// scheduler. It implements dash.Adapter.
type Adapter struct {
	cfg   AdapterConfig
	sched *core.Scheduler
	conn  *mptcp.Conn

	// Obs receives the adapter's §5 decisions (adapter.extend /
	// adapter.skip / adapter.govern), stamped with player time; nil =
	// telemetry off. The adapter runs on the simulator's single
	// goroutine, so no synchronization is needed.
	Obs obs.Sink

	governed int64
	skipped  int64
}

// Instrument wires the adapter (and its scheduler) to t: decision events
// to the journal, governed/skipped counts as scrape-time collectors.
func (a *Adapter) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	a.Obs = t
	a.sched.Instrument(t)
	r := t.Registry
	r.CounterFunc("mpdash_adapter_chunks_total", "Chunks by adapter decision (governed under MP-DASH, or skipped below Ω).",
		obs.Labels{"decision": "governed"}, func() float64 { return float64(a.Governed()) })
	r.CounterFunc("mpdash_adapter_chunks_total", "Chunks by adapter decision (governed under MP-DASH, or skipped below Ω).",
		obs.Labels{"decision": "skipped"}, func() float64 { return float64(a.Skipped()) })
}

// emit journals one adapter decision at the player's current time.
func (a *Adapter) emit(e obs.Event, st dash.PlayerState) {
	if a.Obs == nil {
		return
	}
	e.Sim = st.Now
	a.Obs.Emit(e)
}

// NewAdapter builds the adapter for a scheduler/connection pair.
func NewAdapter(sched *core.Scheduler, conn *mptcp.Conn, cfg AdapterConfig) (*Adapter, error) {
	if sched == nil || conn == nil {
		return nil, fmt.Errorf("abr: nil scheduler or connection")
	}
	if cfg.Category == BufferBased && cfg.BBA == nil {
		return nil, fmt.Errorf("abr: buffer-based adapter requires the BBA instance")
	}
	return &Adapter{cfg: cfg, sched: sched, conn: conn}, nil
}

// TransportEstimate implements dash.Adapter: the §3.2 interface exposing
// the aggregate MPTCP throughput estimate to rate adaptation. Paths the
// scheduler's cost ceiling permanently excludes contribute nothing — the
// player must not budget around capacity MP-DASH will never buy.
func (a *Adapter) TransportEstimate() float64 {
	maxCost := a.sched.MaxCost
	var sum float64
	for _, p := range a.conn.Paths() {
		if !p.Primary && maxCost > 0 && p.Cost > maxCost {
			continue
		}
		sum += a.conn.PathAppThroughput(p.Name)
	}
	return sum
}

// Governed returns how many chunks ran under MP-DASH.
func (a *Adapter) Governed() int64 { return a.governed }

// Skipped returns how many chunks bypassed MP-DASH (buffer below Ω).
func (a *Adapter) Skipped() int64 { return a.skipped }

// phi returns the deadline-extension threshold Φ.
func (a *Adapter) phi(st dash.PlayerState) time.Duration {
	switch a.cfg.Category {
	case BufferBased:
		// §5.2.2: capacity minus one chunk duration.
		return st.BufferCap - st.Video.ChunkDuration
	default:
		// §5.2.1: 80% of capacity.
		return time.Duration(core.PhiFrac * float64(st.BufferCap))
	}
}

// omega returns the low-buffer disable threshold Ω.
func (a *Adapter) omega(st dash.PlayerState) time.Duration {
	switch a.cfg.Category {
	case BufferBased:
		// §5.2.2: only govern when the player has reached the highest
		// sustainable bitrate; keep the buffer above that level's lower
		// map bound e_l plus one chunk.
		level := st.LastLevel
		if level < 0 {
			return st.BufferCap // startup: never govern
		}
		est := a.TransportEstimate()
		sustainable := st.Video.LevelForThroughput(est)
		if sustainable < 0 {
			sustainable = 0
		}
		if level < sustainable {
			// Still climbing: defer to stock MPTCP.
			return st.BufferCap
		}
		el := a.cfg.BBA.LevelLowerBuffer(st, level)
		return el + st.Video.ChunkDuration
	default:
		// §5.2.1: over a window T = 2 × buffer duration, T' is the
		// content downloadable at the lowest bitrate; Ω = T − T',
		// floored at 40% of capacity. (The paper notes that T at 1× or
		// 3× the buffer does not change the results qualitatively.)
		T := time.Duration(2 * float64(st.BufferCap))
		lowest := st.Video.Levels[0].AvgBitrateMbps * 1e6
		est := a.TransportEstimate()
		tPrime := time.Duration(float64(T) * est / lowest)
		omega := T - tPrime
		if omega < 0 {
			omega = 0
		}
		if min := time.Duration(0.4 * float64(st.BufferCap)); omega < min {
			omega = min
		}
		return omega
	}
}

// OnChunkStart implements dash.Adapter.
func (a *Adapter) OnChunkStart(st dash.PlayerState, meta dash.ChunkMeta, tr *mptcp.Transfer) {
	if !a.cfg.DisableLowBufferGuard {
		if omega := a.omega(st); st.Buffer < omega {
			// Below Ω: MP-DASH stays out of the way; make sure the
			// connection is in stock multipath mode.
			a.skipped++
			a.emit(obs.NewEvent("adapter.skip").WithChunk(meta.Index, meta.Level).
				WithNum("buffer_s", st.Buffer.Seconds()).
				WithNum("omega_s", omega.Seconds()), st)
			a.sched.Disable()
			return
		}
	}
	phi := st.Buffer // no room above Φ: extension off (ablation)
	if !a.cfg.DisableExtension {
		phi = a.phi(st)
	}
	d, ext := core.ChunkDeadline(a.cfg.Policy == RateBased, meta.Size, meta.NominalBps, meta.Duration, st.Buffer, phi)
	if ext > 0 {
		a.emit(obs.NewEvent("adapter.extend").WithChunk(meta.Index, meta.Level).
			WithNum("extension_s", ext.Seconds()).
			WithNum("buffer_s", st.Buffer.Seconds()).
			WithNum("phi_s", phi.Seconds()), st)
	}
	a.sched.Govern(tr)
	if err := a.sched.Enable(meta.Size, d); err != nil {
		// A malformed chunk is a programming error upstream; fail safe
		// by leaving stock MPTCP in charge.
		a.sched.Disable()
		a.skipped++
		return
	}
	a.governed++
	a.emit(obs.NewEvent("adapter.govern").WithChunk(meta.Index, meta.Level).
		WithNum("deadline_s", d.Seconds()).
		WithNum("size", float64(meta.Size)), st)
}

// OnChunkDone implements dash.Adapter. Completion already deactivates the
// scheduler (condition 1); nothing further is required.
func (a *Adapter) OnChunkDone(dash.PlayerState, dash.ChunkResult) {}
