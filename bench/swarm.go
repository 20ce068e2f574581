package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"time"

	"mpdash/internal/swarm"
)

// pacedSwarmJSON is the full-size scenario (900 sessions over 18 s);
// the run keeps its arrival rate and scales the window to --seconds.
//
//go:embed workloads/paced-swarm.json
var pacedSwarmJSON []byte

// swarmScenario derives the scenario one run plays: arrivals fill three
// quarters of the window, which leaves the last sessions their playout.
func swarmScenario(seed int64, window time.Duration) (swarm.Scenario, error) {
	var scn swarm.Scenario
	if err := json.Unmarshal(pacedSwarmJSON, &scn); err != nil {
		return scn, err
	}
	rate := float64(scn.Sessions) / scn.Arrival.Over.D().Seconds()
	over := window * 3 / 4
	scn.Arrival.Over = swarm.Duration(over)
	scn.Sessions = max(1, int(rate*over.Seconds()))
	scn.Seed = seed
	return scn, nil
}

// swarmSetup is paced-swarm's set-up: the scenario decoded, defaulted,
// validated and planned. (Run plans again from the same seed; the tier
// it starts is inside the measured run, as it is for a user.)
func swarmSetup(seed int64, window time.Duration) (*swarm.Swarm, []swarm.SessionSpec, time.Duration, error) {
	t0 := time.Now()
	scn, err := swarmScenario(seed, window)
	if err != nil {
		return nil, nil, 0, err
	}
	sw, err := swarm.New(scn)
	if err != nil {
		return nil, nil, 0, err
	}
	plan, err := swarm.Plan(sw.Scenario)
	return sw, plan, time.Since(t0), err
}

// plannedChunks is how many chunks the plan's sessions set out to play.
func plannedChunks(scn *swarm.Scenario, plan []swarm.SessionSpec) int64 {
	var n int64
	for _, s := range plan {
		c := scn.Catalog[s.Video].Chunks
		if p := scn.Profiles[s.Profile].Chunks; p > 0 && p < c {
			c = p
		}
		n += int64(c)
	}
	return n
}

// swarmRun is one population run and what it cost.
type swarmRun struct {
	rep       *swarm.Report
	cost      cost
	end       snapshot
	attempted int64
}

func playSwarm(sw *swarm.Swarm, plan []swarm.SessionSpec) (*swarmRun, error) {
	sw.KeepSessions = true
	before := takeSnapshot()
	rep, err := sw.Run(context.Background())
	after := takeSnapshot()
	if err != nil {
		return nil, err
	}
	return &swarmRun{rep: rep, cost: after.since(before), end: after, attempted: plannedChunks(&sw.Scenario, plan)}, nil
}

// outcome folds the report into the pass's result: a chunk that was
// planned and not delivered — lost, or its session failed, timed out or
// panicked — is a failed operation and counts as missing its deadline.
func (r *swarmRun) outcome() *outcome {
	rep := r.rep
	delivered := int64(rep.Chunks)
	o := newOutcome(r.attempted, max(r.attempted-delivered, 0), nil)
	if rep.LedgerViolations != 0 {
		o.problemf("%d sessions failed byte-for-byte verification", rep.LedgerViolations)
	}
	if bad := rep.Failed + rep.TimedOut + rep.Panicked; bad != 0 {
		o.problemf("%d sessions failed, %d timed out, %d panicked", rep.Failed, rep.TimedOut, rep.Panicked)
	}
	return o
}

func (r *swarmRun) endToEnd(v map[string]float64) {
	rep := r.rep
	r.cost.perChunk(v, int64(rep.Chunks), r.end)
	var perChunk []float64
	for _, s := range rep.SessionOutcomes {
		if s.Result != nil && s.Result.Chunks > 0 {
			perChunk = append(perChunk, ms(s.Wall.D())/float64(s.Result.Chunks))
		}
	}
	chunkMS(v, perChunk)
	late := int64(rep.DeadlineMisses) + max(r.attempted-int64(rep.Chunks), 0)
	v["deadline_met_share"] = 1 - float64(late)/float64(max(r.attempted, 1))
	v["wifi_byte_share"] = 1 - rep.CellularByteShare
	v["avg_level"] = rep.AvgLevel
}

func runSwarm(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runSwarmTraced(cfg)
	}
	// Warm-up: a handful of sessions, so the run does not pay for the
	// first goroutine stacks and pool fills.
	if warm, plan, _, err := swarmSetup(cfg.seed, 200*time.Millisecond); err != nil {
		return nil, err
	} else if _, err := playSwarm(warm, plan); err != nil {
		return nil, err
	}
	sw, plan, first, err := swarmSetup(cfg.seed, cfg.window)
	if err != nil {
		return nil, err
	}
	run, err := playSwarm(sw, plan)
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(first, func() (time.Duration, error) {
		_, _, d, err := swarmSetup(cfg.seed, cfg.window)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	o := run.outcome()
	o.values["setup_s"] = setup
	run.endToEnd(o.values)
	rep := run.rep
	o.notef("open loop: %d sessions, Poisson over %v (%.0f/s), max_active %d; wall %.1fs, peak %d concurrent, %d chunks, startup p50 %.0f ms p95 %.0f ms, miss rate %.4f, cellular share %.4f",
		rep.Sessions, sw.Scenario.Arrival.Over.D(), float64(rep.Sessions)/sw.Scenario.Arrival.Over.D().Seconds(),
		sw.Scenario.MaxActive, rep.WallS, rep.PeakConcurrent, rep.Chunks,
		1e3*rep.StartupDelayS.P50, 1e3*rep.StartupDelayS.P95, rep.DeadlineMissRate, rep.CellularByteShare)
	o.notef("cpu busy %.0f%% of one core over the run", 100*run.cost.cpu.Seconds()/run.cost.wall.Seconds())
	return o, nil
}
