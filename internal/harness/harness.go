// Package harness assembles full MP-DASH experiments: simulator +
// multipath connection + deadline scheduler + video adapter + player +
// energy model. Every table and figure of the paper is regenerated by
// running sessions through this package with different configurations.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/energy"
	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// Scheme selects the transport/scheduling configuration of a session.
type Scheme int

const (
	// Baseline is vanilla MPTCP: both paths, stock scheduler, no MP-DASH.
	Baseline Scheme = iota
	// MPDashRate is MP-DASH with the rate-based deadline policy.
	MPDashRate
	// MPDashDuration is MP-DASH with the duration-based deadline policy.
	MPDashDuration
	// WiFiOnly disables the LTE path entirely (single-path comparison,
	// Fig. 11 bottom).
	WiFiOnly
	// ThrottleLTE is vanilla MPTCP with the cellular path capped
	// (the §7.3.1 alternative MP-DASH is compared against).
	ThrottleLTE
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case MPDashRate:
		return "mpdash-rate"
	case MPDashDuration:
		return "mpdash-duration"
	case WiFiOnly:
		return "wifi-only"
	case ThrottleLTE:
		return "throttle-lte"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Algorithm names a rate-adaptation algorithm.
type Algorithm string

// Supported algorithms.
const (
	GPAC    Algorithm = "GPAC"
	FESTIVE Algorithm = "FESTIVE"
	BBA     Algorithm = "BBA"
	BBAC    Algorithm = "BBA-C"
	MPC     Algorithm = "MPC"
	FastMPC Algorithm = "FastMPC"
	SVAA    Algorithm = "SVAA"
)

// Algorithms lists all supported algorithms (the paper's four plus the
// MPC/fastMPC extension and Tian & Liu's SVAA).
func Algorithms() []Algorithm {
	return []Algorithm{GPAC, FESTIVE, BBA, BBAC, MPC, FastMPC, SVAA}
}

// SessionConfig describes one streaming session.
type SessionConfig struct {
	// WiFi and LTE are the two paths' bandwidth traces. Required.
	WiFi, LTE *trace.Trace
	// WiFiRTT/LTERTT default to 50 ms / 60 ms (the paper's testbed).
	WiFiRTT, LTERTT time.Duration
	// Video defaults to Big Buck Bunny.
	Video *dash.Video
	// Algorithm defaults to FESTIVE.
	Algorithm Algorithm
	// Scheme defaults to Baseline.
	Scheme Scheme
	// Chunks limits playback length; 0 plays the whole video.
	Chunks int
	// Alpha is the scheduler safety factor; 0 means core.DefaultAlpha.
	Alpha float64
	// Scheduler is the underlying MPTCP packet scheduler.
	Scheduler mptcp.SchedulerKind
	// Device is the energy model device; zero value means Galaxy Note.
	Device energy.Device
	// ThrottleMbps caps the LTE path for Scheme ThrottleLTE.
	ThrottleMbps float64
	// BufferCap overrides the player buffer capacity (0 = default).
	BufferCap time.Duration
	// DisableExtension and DisableLowBufferGuard switch off the adapter's
	// Φ deadline-extension and Ω low-buffer mechanisms (ablation arms).
	DisableExtension      bool
	DisableLowBufferGuard bool
	// CoupledCC runs RFC 6356 LIA coupled congestion control instead of
	// the paper's decoupled configuration (ablation arm).
	CoupledCC bool
	// Recorder, when set, captures every delivered transport segment
	// (pcaplite packet-trace input for the analysis tool).
	Recorder mptcp.Recorder
	// RTTJitterFrac adds ±fraction per-packet propagation jitter on both
	// paths' data direction.
	RTTJitterFrac float64
}

// SessionResult is a full session's outcome.
type SessionResult struct {
	Config SessionConfig
	Report *dash.Report
	Energy energy.Session
	// Wall is the session's virtual duration.
	Wall time.Duration
	// WiFiSeries/LTESeries are per-window Mbps series (window =
	// mptcp.DefaultMeterWindow) for traffic-pattern figures.
	WiFiSeries, LTESeries []float64
	// MeterWindow is the series' bucket width.
	MeterWindow time.Duration
	// Governed/Skipped count chunks under / bypassing MP-DASH.
	Governed, Skipped int64
	// DeadlineMisses counts governed chunks that blew their window.
	DeadlineMisses int64
}

// RadioJ is the session's total radio energy.
func (r *SessionResult) RadioJ() float64 { return r.Energy.RadioJ() }

// LTEBytes is the steady-state cellular byte count.
func (r *SessionResult) LTEBytes() int64 { return r.Report.CellularBytes("lte") }

func (c *SessionConfig) applyDefaults() error {
	if c.WiFi == nil || c.LTE == nil {
		return fmt.Errorf("harness: both WiFi and LTE traces required")
	}
	if c.WiFiRTT == 0 {
		c.WiFiRTT = 50 * time.Millisecond
	}
	if c.LTERTT == 0 {
		c.LTERTT = 60 * time.Millisecond
	}
	if c.Video == nil {
		c.Video = dash.BigBuckBunny()
	}
	if c.Algorithm == "" {
		c.Algorithm = FESTIVE
	}
	if c.Alpha == 0 {
		c.Alpha = core.DefaultAlpha
	}
	if c.Device.Name == "" {
		c.Device = energy.GalaxyNote()
	}
	if c.Scheme == ThrottleLTE && c.ThrottleMbps <= 0 {
		return fmt.Errorf("harness: ThrottleLTE requires ThrottleMbps")
	}
	return nil
}

// newAlgorithm instantiates a fresh rate adapter for the given video.
func newAlgorithm(a Algorithm, video *dash.Video) (dash.RateAdapter, *abr.BBA, error) {
	switch a {
	case GPAC:
		return abr.NewGPAC(), nil, nil
	case FESTIVE:
		return abr.NewFESTIVE(), nil, nil
	case BBA:
		b := abr.NewBBA()
		return b, b, nil
	case BBAC:
		b := abr.NewBBAC()
		return b, b, nil
	case MPC:
		return abr.NewMPC(), nil, nil
	case FastMPC:
		return abr.NewFastMPC(video), nil, nil
	case SVAA:
		return abr.NewSVAA(), nil, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown algorithm %q", a)
	}
}

// RunSession executes one full streaming session.
func RunSession(cfg SessionConfig) (*SessionResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := sim.New()

	lteTrace := cfg.LTE
	if cfg.Scheme == ThrottleLTE {
		lteTrace = lteTrace.Cap(cfg.ThrottleMbps)
	}
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Scheduler: cfg.Scheduler,
		CoupledCC: cfg.CoupledCC,
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: cfg.WiFi, RTT: cfg.WiFiRTT, Cost: 0.1, Primary: true,
				JitterFrac: cfg.RTTJitterFrac, JitterSeed: 1},
			{Name: "lte", Rate: lteTrace, RTT: cfg.LTERTT, Cost: 1.0,
				JitterFrac: cfg.RTTJitterFrac, JitterSeed: 2},
		},
	})
	if err != nil {
		return nil, err
	}
	if cfg.Scheme == WiFiOnly {
		if err := conn.SetPathEnabledNow("lte", false); err != nil {
			return nil, err
		}
	}
	if cfg.Recorder != nil {
		conn.SetRecorder(cfg.Recorder)
	}

	algo, bba, err := newAlgorithm(cfg.Algorithm, cfg.Video)
	if err != nil {
		return nil, err
	}

	var adapter dash.Adapter
	var sched *core.Scheduler
	var abrAdapter *abr.Adapter
	if cfg.Scheme == MPDashRate || cfg.Scheme == MPDashDuration {
		sched, err = core.NewScheduler(s, conn, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		acfg := abr.AdapterConfig{
			Policy:                abr.RateBased,
			DisableExtension:      cfg.DisableExtension,
			DisableLowBufferGuard: cfg.DisableLowBufferGuard,
		}
		if cfg.Scheme == MPDashDuration {
			acfg.Policy = abr.DurationBased
		}
		if bba != nil {
			acfg.Category = abr.BufferBased
			acfg.BBA = bba
		}
		abrAdapter, err = abr.NewAdapter(sched, conn, acfg)
		if err != nil {
			return nil, err
		}
		adapter = abrAdapter
	}

	player, err := dash.NewPlayer(s, conn, cfg.Video, algo, adapter)
	if err != nil {
		return nil, err
	}
	if cfg.BufferCap > 0 {
		player.BufferCap = cfg.BufferCap
	}
	rep, err := player.Run(cfg.Chunks)
	if err != nil {
		return nil, err
	}

	res := &SessionResult{
		Config:      cfg,
		Report:      rep,
		Wall:        s.Now(),
		MeterWindow: conn.Path("wifi").Meter().Window,
		WiFiSeries:  conn.Path("wifi").Meter().SeriesMbps(),
		LTESeries:   conn.Path("lte").Meter().SeriesMbps(),
	}
	res.Energy, err = energy.SessionEnergy(cfg.Device,
		conn.Path("lte").Meter().Buckets(),
		conn.Path("wifi").Meter().Buckets(),
		res.MeterWindow, res.Wall)
	if err != nil {
		return nil, err
	}
	if abrAdapter != nil {
		res.Governed = abrAdapter.Governed()
		res.Skipped = abrAdapter.Skipped()
	}
	if sched != nil {
		res.DeadlineMisses = sched.DeadlineMisses()
	}
	return res, nil
}

// RunSessions runs every config and returns the results in input order.
// Sessions are independent, so they run concurrently on
// min(GOMAXPROCS, len(cfgs)) goroutines; each session is single-threaded
// and deterministic, so result i is exactly what RunSession(cfgs[i])
// returns, whatever the worker count. Configs may share read-only inputs
// (traces, a *dash.Video). A config's Recorder belongs to that config
// alone: it is called from its session's goroutine and must not be shared
// with another config in the batch. If any session fails, RunSessions
// returns the error of the lowest-index failed config, wrapped with its
// index, and no results.
func RunSessions(cfgs []SessionConfig) ([]*SessionResult, error) {
	out := make([]*SessionResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cfgs); i = int(next.Add(1) - 1) {
				out[i], errs[i] = RunSession(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: session %d: %w", i, err)
		}
	}
	return out, nil
}
