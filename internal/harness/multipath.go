package harness

import (
	"fmt"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/mptcp"
	"mpdash/internal/policy"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// PathConfig describes one path of an N-path session.
type PathConfig struct {
	Name    string
	Trace   *trace.Trace
	RTT     time.Duration
	Cost    float64
	Primary bool
}

// MultiSessionConfig is the N-path generalization of SessionConfig: any
// number of paths, an optional dynamic cost policy, and the scheduler's
// cost ceiling. Energy modelling is omitted (the two-radio device model
// does not generalize to arbitrary path sets).
type MultiSessionConfig struct {
	Paths []PathConfig
	// Video defaults to Big Buck Bunny; Algorithm to FESTIVE.
	Video     *dash.Video
	Algorithm Algorithm
	// Scheme must be Baseline, MPDashRate or MPDashDuration.
	Scheme Scheme
	Chunks int
	Alpha  float64
	// Policy optionally drives dynamic path costs.
	Policy policy.Policy
	// PolicyInterval defaults to 1 s.
	PolicyInterval time.Duration
	// MaxCost is the scheduler's cost ceiling (0 = none).
	MaxCost float64
	// Scheduler selects the packet scheduler.
	Scheduler mptcp.SchedulerKind
}

// MultiSessionResult is an N-path session's outcome.
type MultiSessionResult struct {
	Report *dash.Report
	Wall   time.Duration
	// PathBytes is the whole-session per-path byte split.
	PathBytes map[string]int64
	// Governed/Skipped/DeadlineMisses mirror SessionResult.
	Governed, Skipped, DeadlineMisses int64
	// PolicyUpdates counts cost pushes when a policy was attached.
	PolicyUpdates int64
}

// RunMultiSession executes one N-path streaming session.
func RunMultiSession(cfg MultiSessionConfig) (*MultiSessionResult, error) {
	if len(cfg.Paths) < 2 {
		return nil, fmt.Errorf("harness: need at least two paths, got %d", len(cfg.Paths))
	}
	switch cfg.Scheme {
	case Baseline, MPDashRate, MPDashDuration:
	default:
		return nil, fmt.Errorf("harness: scheme %v unsupported for multi-path sessions", cfg.Scheme)
	}
	if cfg.Video == nil {
		cfg.Video = dash.BigBuckBunny()
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = FESTIVE
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = core.DefaultAlpha
	}

	specs := make([]mptcp.PathSpec, 0, len(cfg.Paths))
	for _, p := range cfg.Paths {
		specs = append(specs, mptcp.PathSpec{
			Name: p.Name, Rate: p.Trace, RTT: p.RTT, Cost: p.Cost, Primary: p.Primary,
		})
	}
	var mgr *policy.Manager
	ss, err := playSession(sessionSpec{
		conn:  mptcp.Config{Scheduler: cfg.Scheduler, Paths: specs},
		video: cfg.Video, algorithm: cfg.Algorithm, scheme: cfg.Scheme,
		alpha: cfg.Alpha, maxCost: cfg.MaxCost, chunks: cfg.Chunks,
		prepare: func(s *sim.Simulator, conn *mptcp.Conn) (err error) {
			if cfg.Policy == nil {
				return nil
			}
			if mgr, err = policy.NewManager(s, conn, cfg.Policy); err == nil && cfg.PolicyInterval > 0 {
				mgr.Interval = cfg.PolicyInterval
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	res := &MultiSessionResult{
		Report:    ss.rep,
		Wall:      ss.sim.Now(),
		PathBytes: map[string]int64{},
	}
	for _, p := range ss.conn.Paths() {
		res.PathBytes[p.Name] = p.DeliveredBytes()
	}
	res.Governed, res.Skipped, res.DeadlineMisses = ss.counts()
	if mgr != nil {
		res.PolicyUpdates = mgr.Updates()
	}
	return res, nil
}

// sessionSpec is what playSession builds a session from, defaults applied.
type sessionSpec struct {
	conn      mptcp.Config
	video     *dash.Video
	algorithm Algorithm
	scheme    Scheme
	alpha     float64
	maxCost   float64 // the scheduler's cost ceiling (0 = none)
	// adapter holds the MP-DASH adapter's switches; playSession sets its
	// Policy, Category and BBA.
	adapter   abr.AdapterConfig
	bufferCap time.Duration // 0 = the player's default
	chunks    int
	// prepare, when set, runs on the new connection before the player and
	// its adapters are built.
	prepare func(*sim.Simulator, *mptcp.Conn) error
}

// session is a played-out session: its simulator, connection and report,
// and for the MP-DASH schemes the scheduler and the adapter.
type session struct {
	sim   *sim.Simulator
	conn  *mptcp.Conn
	rep   *dash.Report
	sched *core.Scheduler
	abr   *abr.Adapter
}

// playSession builds one session over sp's paths — the MPTCP connection,
// the rate adapter and, for the MP-DASH schemes, the scheduler and its
// adapter — and plays sp.chunks chunks.
func playSession(sp sessionSpec) (*session, error) {
	ss := &session{sim: sim.New()}
	var err error
	if ss.conn, err = mptcp.NewConn(ss.sim, sp.conn); err != nil {
		return nil, err
	}
	if sp.prepare != nil {
		if err := sp.prepare(ss.sim, ss.conn); err != nil {
			return nil, err
		}
	}
	algo, err := abr.New(string(sp.algorithm), sp.video)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	var adapter dash.Adapter
	if sp.scheme == MPDashRate || sp.scheme == MPDashDuration {
		if ss.sched, err = core.NewScheduler(ss.sim, ss.conn, sp.alpha); err != nil {
			return nil, err
		}
		ss.sched.MaxCost = sp.maxCost
		acfg := sp.adapter
		acfg.Policy = abr.RateBased
		if sp.scheme == MPDashDuration {
			acfg.Policy = abr.DurationBased
		}
		if bba, ok := algo.(*abr.BBA); ok {
			acfg.Category, acfg.BBA = abr.BufferBased, bba
		}
		if ss.abr, err = abr.NewAdapter(ss.sched, ss.conn, acfg); err != nil {
			return nil, err
		}
		adapter = ss.abr
	}
	player, err := dash.NewPlayer(ss.sim, ss.conn, sp.video, algo, adapter)
	if err != nil {
		return nil, err
	}
	if sp.bufferCap > 0 {
		player.BufferCap = sp.bufferCap
	}
	if ss.rep, err = player.Run(sp.chunks); err != nil {
		return nil, err
	}
	return ss, nil
}

// counts returns the MP-DASH adapter's governed and skipped chunks and
// the scheduler's deadline misses, zero under a baseline scheme.
func (ss *session) counts() (governed, skipped, misses int64) {
	if ss.abr != nil {
		governed, skipped = ss.abr.Governed(), ss.abr.Skipped()
	}
	if ss.sched != nil {
		misses = ss.sched.DeadlineMisses()
	}
	return
}

// testbed returns the two-radio testbed's paths (§7): WiFi, preferred, at
// cost 0.1 and LTE at 1.0, each with RTT jitter of jitterFrac from its own
// fixed stream.
func testbed(wifi, lte *trace.Trace, wifiRTT, lteRTT time.Duration, jitterFrac float64) []mptcp.PathSpec {
	return []mptcp.PathSpec{
		{Name: "wifi", Rate: wifi, RTT: wifiRTT, Cost: 0.1, Primary: true, JitterFrac: jitterFrac, JitterSeed: 1},
		{Name: "lte", Rate: lte, RTT: lteRTT, Cost: 1.0, JitterFrac: jitterFrac, JitterSeed: 2},
	}
}
