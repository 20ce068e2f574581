package swarm

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/audit"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
)

// sessionKillGrace is how long after a timeout's graceful Stop the
// session gets before its fetcher is torn down under it.
const sessionKillGrace = 5 * time.Second

// testHookSession, when set, runs at the top of every session inside the
// panic-isolation wrapper — the lever tests use to wreck one session and
// prove the run survives.
var testHookSession func(id int)

// connSamplePeriod is the cadence of the tier connection sampler that
// tracks PeakConns.
const connSamplePeriod = 50 * time.Millisecond

// SessionOutcome is one session's record in the population result.
type SessionOutcome struct {
	ID      int    `json:"id"`
	Video   string `json:"video"`
	Profile string `json:"profile"`
	// StartAt is the planned arrival offset; QueueWait is how long the
	// session waited for a worker slot beyond it.
	StartAt   Duration `json:"start_at"`
	QueueWait Duration `json:"queue_wait"`
	Wall      Duration `json:"wall"`
	// Result is the session's StreamResult (nil when setup failed).
	Result *netmp.StreamResult `json:"result,omitempty"`
	// CellularBytes is the session's bytes over the LTE path, whichever
	// role (primary or secondary) that path played.
	CellularBytes int64 `json:"cellular_bytes"`
	// WastedCellularBytes is the LTE-path share of payload that bought
	// no on-time video: partial bytes of aborted/failed chunks plus the
	// full payload of deadline-missed chunks.
	WastedCellularBytes int64 `json:"wasted_cellular_bytes,omitempty"`
	TotalBytes          int64 `json:"total_bytes"`
	// RebufferRatio is stall time over (stall + played) time.
	RebufferRatio float64 `json:"rebuffer_ratio"`
	Err           string  `json:"err,omitempty"`
	TimedOut      bool    `json:"timed_out,omitempty"`
	Panicked      bool    `json:"panicked,omitempty"`
}

// Swarm orchestrates one population run.
type Swarm struct {
	Scenario Scenario
	// Logf receives progress lines (nil = silent).
	Logf func(format string, a ...any)
	// KeepSessions retains per-session outcomes in the report.
	KeepSessions bool
	// Audit, when set, wires the runtime invariant auditor into every
	// session (per-session playback-monotonicity hooks). The caller owns
	// the auditor lifecycle: Start before Run, CheckTotals/Finish after
	// Run returns (the tier is fully drained by then, so the goroutine
	// check sees a quiet process).
	Audit *audit.Auditor

	// Tracer, when set, records one span trace per chunk across every
	// session (session = spec.ID, so trace IDs stay deterministic under
	// the seeded plan). The caller owns export: write the kept traces
	// after Run returns, or fold them into the report with
	// BuildTraceReport.
	Tracer *obs.Tracer

	tel  *obs.Telemetry
	sobs *swarmObs
}

// New returns a Swarm for the scenario (defaulted and validated).
func New(scn Scenario) (*Swarm, error) {
	s := scn.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Swarm{Scenario: s}, nil
}

// Instrument wires the swarm's population telemetry (swarm_* metrics and
// journal events) to t. Call before Run.
func (sw *Swarm) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	sw.tel = t
	sw.sobs = newSwarmObs(t)
}

func (sw *Swarm) logf(format string, a ...any) {
	if sw.Logf != nil {
		sw.Logf(format, a...)
	}
}

// Run executes the population: it plans the arrivals, starts the server
// tier, launches every session open-loop through the bounded worker
// pool, and aggregates the outcomes. Cancelling ctx stops the launcher
// and gracefully stops active sessions; the partial report is returned.
func (sw *Swarm) Run(ctx context.Context) (*Report, error) {
	scn := &sw.Scenario
	plan, err := Plan(*scn)
	if err != nil {
		return nil, err
	}
	videos := make([]*dash.Video, len(scn.Catalog))
	for i, c := range scn.Catalog {
		videos[i] = c.video(i)
	}
	tr, err := startTier(scn, videos, plan)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	if sw.tel != nil {
		for _, srv := range tr.servers {
			srv.Instrument(sw.tel)
		}
		for _, e := range tr.edges {
			e.Instrument(sw.tel)
		}
		if tr.store != nil {
			tr.store.Instrument(sw.tel)
		}
	}
	edgeTag := ""
	if len(tr.edges) > 0 {
		edgeTag = fmt.Sprintf(" behind %d edges", len(tr.edges))
	}
	sw.logf("swarm %q: %d sessions, %s arrival over %v, %d origins%s, seed %d\n",
		scn.Name, len(plan), scn.Arrival.Kind, scn.Arrival.Over.D(), len(tr.servers), edgeTag, scn.Seed)
	sw.sobs.emitRunStart(scn, len(plan), len(tr.servers))

	// Shared congestion board: sessions of the same origin group publish
	// their service rates under one key, so neighbors seed their
	// predictors from the population and a capacity drop seen by one
	// session pre-arms the rest.
	var board *netmp.CongestionBoard
	if scn.Board {
		board = netmp.NewCongestionBoard()
		if sw.tel != nil {
			board.Instrument(sw.tel)
		}
	}

	// Peak-connection sampler: the tier-wide admission gauge.
	var peakConns atomic.Int64
	sampleCtx, stopSampler := context.WithCancel(context.Background())
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(connSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				if n := int64(tr.currentConns()); n > peakConns.Load() {
					peakConns.Store(n)
				}
			}
		}
	}()

	// Bounded worker pool: a semaphore of MaxActive slots. Arrivals stay
	// open-loop — each session's launcher goroutine fires at its planned
	// offset and then waits (measured) for a slot.
	sem := make(chan struct{}, scn.MaxActive)
	outcomes := make([]SessionOutcome, len(plan))
	var active, peakActive, launched int64
	var actMu sync.Mutex
	noteActive := func(d int64) {
		actMu.Lock()
		active += d
		if active > peakActive {
			peakActive = active
		}
		a := active
		actMu.Unlock()
		sw.sobs.setActive(a)
	}

	start := time.Now()

	// Chaos executor: one goroutine walks the merged timeline in order,
	// firing each event against the shared tier at its offset from run
	// start. Every executed event is logged (with how many origins it
	// touched) so MTTR can be dated against the chunk stream afterwards.
	timeline := scn.chaosTimeline()
	var tracker *missTracker
	var chaosLog []appliedChaos
	var chaosMu sync.Mutex
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	defer stopChaos()
	var chaosWG sync.WaitGroup
	if len(timeline) > 0 {
		tracker = newMissTracker(start)
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaosTimer := time.NewTimer(0)
			defer chaosTimer.Stop()
			if !chaosTimer.Stop() {
				<-chaosTimer.C
			}
			for _, ev := range timeline {
				if wait := ev.At.D() - time.Since(start); wait > 0 {
					chaosTimer.Reset(wait)
					select {
					case <-chaosCtx.Done():
						return
					case <-chaosTimer.C:
					}
				} else if chaosCtx.Err() != nil {
					return
				}
				// Stamp the instant the mutation begins (a crash's quiesce
				// wait is part of the outage, not before it).
				appliedAt := time.Since(start)
				touched := sw.applyChaos(tr, scn, ev, appliedAt)
				chaosMu.Lock()
				chaosLog = append(chaosLog, appliedChaos{ev: ev, applied: appliedAt, touched: touched})
				chaosMu.Unlock()
			}
		}()
	}

	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
launch:
	for i, spec := range plan {
		wait := spec.StartAt - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break launch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break launch
		}
		wg.Add(1)
		launched++
		go func(i int, spec SessionSpec) {
			defer wg.Done()
			arrived := time.Now()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				outcomes[i] = SessionOutcome{
					ID: spec.ID, StartAt: Duration(spec.StartAt),
					Video:   scn.Catalog[spec.Video].Name,
					Profile: scn.Profiles[spec.Profile].Name,
					Err:     "cancelled before a worker slot freed",
				}
				return
			}
			defer func() { <-sem }()
			queueWait := time.Since(arrived)
			noteActive(1)
			defer noteActive(-1)
			out := sw.runSession(ctx, spec, videos[spec.Video], tr.groups[scn.groupFor(spec)], board, boardKey(scn.groupFor(spec)), tracker)
			out.QueueWait = Duration(queueWait)
			outcomes[i] = out
			sw.sobs.observeSession(out)
		}(i, spec)
	}
	wg.Wait()
	stopChaos()
	chaosWG.Wait()
	stopSampler()
	samplerWG.Wait()

	rep := aggregate(scn, outcomes[:launched], tr.report(int(peakConns.Load())), time.Since(start), int(peakActive))
	rep.Cache = tr.cacheReport(scn)
	if sw.KeepSessions {
		rep.SessionOutcomes = outcomes[:launched]
	}
	if len(chaosLog) > 0 {
		rep.Chaos = computeMTTR(tracker.snapshot(), chaosLog, scn.Recovery.withDefaults())
		var mttrs []float64
		for _, c := range rep.Chaos {
			if c.Recovered {
				mttrs = append(mttrs, c.MTTRS)
			}
		}
		if len(mttrs) > 0 {
			q := quantilesOf(mttrs)
			rep.MTTR = &q
		}
	}
	sw.sobs.emitRunDone(rep)
	if ctx.Err() != nil && launched < int64(len(plan)) {
		sw.logf("swarm: cancelled after launching %d/%d sessions\n", launched, len(plan))
	}
	return rep, nil
}

// chaosFaultSeed salts the draw streams of fault plans installed by
// chaos fault surges on origins that started without one.
const chaosFaultSeed = 0x5eed0006

// applyChaos executes one timeline event against the tier and returns
// how many origins it touched.
func (sw *Swarm) applyChaos(tr *tier, scn *Scenario, ev ChaosEvent, at time.Duration) int {
	var n int
	var err error
	switch ev.Kind {
	case ChaosCapacityDrop:
		n = tr.applyDrop(ev.WiFiFactor, ev.LTEFactor)
	case ChaosCapacityRestore:
		n = tr.applyRestore()
	case ChaosFaultSurge:
		n = tr.applyFaultProbs(ev.Faults, scn.Seed^chaosFaultSeed)
	case ChaosFaultClear:
		n = tr.applyFaultProbs(scn.Servers.Faults, scn.Seed^chaosFaultSeed)
	case ChaosBlackout:
		n = tr.crash(ev.Path, -1)
	case ChaosHeal:
		n, err = tr.restart(ev.Path, -1)
	case ChaosOriginCrash:
		n = tr.crash(ev.Path, ev.Origin)
	case ChaosOriginRestart:
		n, err = tr.restart(ev.Path, ev.Origin)
	}
	if err != nil {
		sw.logf("swarm: chaos %s at %v: %v\n", ev.Kind, at, err)
	}
	sw.logf("swarm: chaos %s at %v: %d origins touched\n", ev.Kind, at.Round(time.Millisecond), n)
	sw.sobs.emitChaos(ev, at, n)
	return n
}

// runSession executes one client session against the shared tier. It
// never panics out: a panic inside the session (or the libraries under
// it) is absorbed into the outcome.
// boardKey names one origin group's bottleneck on the congestion board:
// sessions streaming the same video through the same link class share
// the shaped servers, so they share a key.
func boardKey(k groupKey) string {
	return fmt.Sprintf("group:v%d:w%g:l%g", k.video, k.wifiMbps, k.lteM)
}

func (sw *Swarm) runSession(ctx context.Context, spec SessionSpec, video *dash.Video, grp originGroup, board *netmp.CongestionBoard, key string, tracker *missTracker) (out SessionOutcome) {
	scn := &sw.Scenario
	prof := scn.Profiles[spec.Profile]
	out = SessionOutcome{
		ID:      spec.ID,
		StartAt: Duration(spec.StartAt),
		Video:   video.Name,
		Profile: prof.Name,
	}
	defer func() {
		if r := recover(); r != nil {
			out.Panicked = true
			out.Err = fmt.Sprintf("panic: %v", r)
			// The stack goes to the journal, not the outcome: a chaos
			// run's crash must be debuggable without bloating the report.
			sw.sobs.emitSessionPanic(spec.ID, fmt.Sprint(r), string(debug.Stack()))
			// The chunk in flight when the session died keeps its trace:
			// tail sampling always retains the panic verdict.
			sw.Tracer.FinishDangling(spec.ID, obs.TracePanic)
		}
	}()
	sw.sobs.emitSessionStart(spec, video.Name, prof.Name)
	if testHookSession != nil {
		testHookSession(spec.ID)
	}

	primary, secondary := grp.wifi, grp.lte
	lteIsSecondary := true
	if prof.Preference == "lte" {
		primary, secondary = grp.lte, grp.wifi
		lteIsSecondary = false
	}
	f, err := netmp.NewFetcherOrigins(video, netmp.BreakerPolicy{}, primary, secondary)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer f.Close()
	f.Retry = netmp.RetryPolicy{Seed: spec.Seed}
	if a := scn.Abort; a != nil {
		f.Abort = netmp.AbortPolicy{Enabled: true, Factor: a.Factor, MinProgress: a.MinProgress}
	}
	if board != nil {
		f.JoinBoard(board, key)
	}
	adapter, err := newABR(prof.ABR, video)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	st := &netmp.Streamer{Fetcher: f, ABR: adapter, RateBased: true,
		Tracer: sw.Tracer, TraceSession: spec.ID}
	if tracker != nil || sw.Audit != nil {
		var playback func(int, bool)
		if sw.Audit != nil {
			playback = sw.Audit.Playback(spec.ID)
		}
		st.OnChunk = func(i int, missed bool) {
			tracker.note(missed) // nil-safe
			if playback != nil {
				playback(i, missed)
			}
		}
	}

	// Supervision: a cancelled run stops the session gracefully; a
	// session that outlives its timeout is stopped, then — after a grace
	// period for the in-flight chunk — has its sockets pulled.
	done := make(chan struct{})
	defer close(done)
	var timedOut atomic.Bool
	kill := netmp.SharedWheel().AfterFunc(scn.SessionTimeout.D(), func() {
		timedOut.Store(true)
		st.Stop()
		t := time.NewTimer(sessionKillGrace)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			f.Close()
		}
	})
	defer kill.Stop()
	go func() {
		select {
		case <-ctx.Done():
			st.Stop()
		case <-done:
		}
	}()

	t0 := time.Now()
	res, serr := st.Stream(prof.Chunks)
	out.Wall = Duration(time.Since(t0))
	out.Result = res
	out.TimedOut = timedOut.Load()
	if serr != nil {
		out.Err = serr.Error()
	}
	if res != nil {
		out.TotalBytes = res.PrimaryBytes + res.SecondaryBytes
		if lteIsSecondary {
			out.CellularBytes = res.SecondaryBytes
			out.WastedCellularBytes = res.WastedSecondaryBytes
		} else {
			out.CellularBytes = res.PrimaryBytes
			out.WastedCellularBytes = res.WastedPrimaryBytes
		}
		played := time.Duration(res.Chunks) * video.ChunkDuration
		if denom := res.StallTime + played; denom > 0 {
			out.RebufferRatio = res.StallTime.Seconds() / denom.Seconds()
		}
	}
	return out
}

// newABR builds a fresh rate-adaptation instance per session; a profile
// that names none runs gpac.
func newABR(name string, video *dash.Video) (dash.RateAdapter, error) {
	if name == "" {
		name = "gpac"
	}
	return abr.New(name, video)
}
