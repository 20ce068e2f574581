package swarm

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestChaosTimelineSortsByAt(t *testing.T) {
	scn := tinyScenario(4)
	scn.Chaos = []ChaosEvent{
		{At: Duration(500 * time.Millisecond), Kind: ChaosCapacityRestore},
		{At: Duration(300 * time.Millisecond), Kind: ChaosCapacityDrop, WiFiFactor: 0.5},
		{At: Duration(100 * time.Millisecond), Kind: ChaosFaultSurge, Faults: &FaultSpec{ResetProb: 0.1}},
		{At: Duration(300 * time.Millisecond), Kind: ChaosFaultClear},
	}
	tl := scn.chaosTimeline()
	// Sorted by At; the two events at 300ms keep their declared order.
	want := []ChaosKind{ChaosFaultSurge, ChaosCapacityDrop, ChaosFaultClear, ChaosCapacityRestore}
	if len(tl) != len(want) {
		t.Fatalf("timeline has %d events, want %d", len(tl), len(want))
	}
	for i, k := range want {
		if tl[i].Kind != k {
			t.Fatalf("timeline[%d] = %s, want %s", i, tl[i].Kind, k)
		}
	}
	if tl[1].WiFiFactor != 0.5 {
		t.Fatalf("drop lost its factor: %+v", tl[1])
	}
	// The scenario's own slice is left in declared order.
	if scn.Chaos[0].Kind != ChaosCapacityRestore {
		t.Fatalf("chaosTimeline reordered the scenario: %+v", scn.Chaos)
	}
}

func TestValidateChaosRejectsBadEvents(t *testing.T) {
	base := func() Scenario { return tinyScenario(4).withDefaults() }
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"negative offset", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(-time.Second), Kind: ChaosCapacityRestore}}
		}, "at must be > 0"},
		{"beyond horizon", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: s.Arrival.Over + s.SessionTimeout + Duration(time.Second), Kind: ChaosCapacityRestore}}
		}, "beyond the run horizon"},
		{"unknown kind", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: "meteor_strike"}}
		}, "unknown kind"},
		{"bad path", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosBlackout, Path: "5g"}}
		}, `path "5g"`},
		{"drop factor out of range", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosCapacityDrop, WiFiFactor: 1.5}}
		}, "factors must be in [0,1]"},
		{"surge without faults", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosFaultSurge}}
		}, "needs a faults mix"},
		{"surge prob out of range", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosFaultSurge, Faults: &FaultSpec{StallProb: 2}}}
		}, "stall_prob 2"},
		{"origin rank out of range", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosOriginCrash, Path: "wifi", Origin: 3}}
		}, "out of range"},
		{"origin rank below -1", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosOriginCrash, Origin: -2}}
		}, "origin rank -2"},
		{"restart without crash", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosOriginRestart, Path: "wifi"}}
		}, "not crashed at that point"},
		{"overlapping crash", func(s *Scenario) {
			s.Chaos = []ChaosEvent{
				{At: Duration(time.Second), Kind: ChaosOriginCrash, Path: "wifi"},
				{At: Duration(2 * time.Second), Kind: ChaosOriginCrash, Path: "wifi"},
			}
		}, "overlaps an outstanding crash"},
		{"blackout over crashed origin", func(s *Scenario) {
			s.Chaos = []ChaosEvent{
				{At: Duration(time.Second), Kind: ChaosOriginCrash, Path: "lte"},
				{At: Duration(2 * time.Second), Kind: ChaosBlackout, Path: "lte"},
			}
		}, "overlaps an outstanding crash"},
		{"heal of healthy path", func(s *Scenario) {
			s.Chaos = []ChaosEvent{{At: Duration(time.Second), Kind: ChaosHeal, Path: "wifi"}}
		}, "not crashed at that point"},
		{"bad recovery threshold", func(s *Scenario) {
			s.Recovery = &RecoverySpec{MissThreshold: 1.5}
		}, "miss_threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scn := base()
			tc.mut(&scn)
			err := scn.Validate()
			if err == nil {
				t.Fatalf("validation passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestValidateChaosAcceptsPairedStory(t *testing.T) {
	scn := tinyScenario(4)
	scn.Servers.WiFiOrigins = 2
	scn.Chaos = []ChaosEvent{
		{At: Duration(time.Second), Kind: ChaosOriginCrash, Path: "wifi", Origin: 0},
		{At: Duration(2 * time.Second), Kind: ChaosOriginRestart, Path: "wifi", Origin: 0},
		{At: Duration(3 * time.Second), Kind: ChaosBlackout, Path: "lte"},
		{At: Duration(4 * time.Second), Kind: ChaosHeal, Path: "lte"},
		{At: Duration(5 * time.Second), Kind: ChaosFaultSurge, Faults: &FaultSpec{ResetProb: 0.2}},
		{At: Duration(6 * time.Second), Kind: ChaosFaultClear},
	}
	if err := scn.withDefaults().Validate(); err != nil {
		t.Fatalf("valid paired story rejected: %v", err)
	}
}

func TestComputeMTTRWindows(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Steady completions every 20ms; misses from 200ms to 400ms.
	var samples []chunkSample
	for at := ms(20); at <= ms(800); at += ms(20) {
		samples = append(samples, chunkSample{at: at, missed: at >= ms(200) && at < ms(400)})
	}
	rec := (&RecoverySpec{Window: Duration(100 * time.Millisecond), MissThreshold: 0.2, MinChunks: 3}).withDefaults()
	applied := []appliedChaos{{
		ev:      ChaosEvent{At: Duration(ms(200)), Kind: ChaosCapacityDrop},
		applied: ms(200),
		touched: 2,
	}}
	got := computeMTTR(samples, applied, rec)
	if len(got) != 1 {
		t.Fatalf("got %d reports", len(got))
	}
	r := got[0]
	if !r.Recovered {
		t.Fatalf("event not recovered: %+v", r)
	}
	// Impact shows at 220ms (window (120,220] holds 2 misses / 5 = 0.4);
	// misses end at 400ms and the rate first returns under the threshold
	// at 460ms (window (360,460] holds 1 miss / 5 = 0.2):
	// MTTR = 460ms - 200ms = 260ms.
	if !r.Impacted {
		t.Fatalf("event not marked impacted: %+v", r)
	}
	if want := 0.260; r.MTTRS < want-1e-9 || r.MTTRS > want+1e-9 {
		t.Fatalf("MTTR %.3fs, want %.3fs", r.MTTRS, want)
	}
	if r.Origins != 2 || r.AtS != 0.2 {
		t.Fatalf("report lost event identity: %+v", r)
	}

	// An event whose misses never clear is reported unrecovered.
	for i := range samples {
		samples[i].missed = true
	}
	got = computeMTTR(samples, applied, rec)
	if got[0].Recovered || got[0].MTTRS != -1 {
		t.Fatalf("all-miss stream reported recovered: %+v", got[0])
	}

	// Too few samples in the window: never trusted, never recovered.
	rec.MinChunks = 1000
	for i := range samples {
		samples[i].missed = false
	}
	got = computeMTTR(samples, applied, rec)
	if got[0].Recovered {
		t.Fatalf("sparse stream reported recovered: %+v", got[0])
	}
}

// TestSwarmChaosCrashRestartRecovers is the end-to-end story: a small
// population with two ranked WiFi origins per group suffers a rank-0
// origin crash mid-run and a restart shortly after. Every session must
// complete with a clean ledger, the executed timeline must land in the
// report, and the crash must be recovered with a measured MTTR.
func TestSwarmChaosCrashRestartRecovers(t *testing.T) {
	scn := Scenario{
		Sessions: 24,
		Arrival:  Arrival{Kind: ArrivalUniform, Over: Duration(400 * time.Millisecond)},
		Seed:     7,
		Catalog: []CatalogItem{
			{Name: "chaos-v", ChunkMs: 100, Chunks: 14, LevelsMbps: []float64{0.2, 0.4}},
		},
		Profiles: []Profile{
			{Name: "wifi", Weight: 0.7, ABR: "gpac"},
			{Name: "lte", Weight: 0.3, ABR: "gpac", Preference: "lte"},
		},
		Chaos: []ChaosEvent{
			{At: Duration(300 * time.Millisecond), Kind: ChaosOriginCrash, Path: "wifi", Origin: 0},
			{At: Duration(700 * time.Millisecond), Kind: ChaosOriginRestart, Path: "wifi", Origin: 0},
		},
		Recovery: &RecoverySpec{Window: Duration(300 * time.Millisecond), MissThreshold: 0.5, MinChunks: 3},
	}
	scn.Servers.WiFiOrigins = 2
	sw, err := New(scn)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sessions {
		t.Fatalf("completed %d of %d (failed=%d timedout=%d panicked=%d)",
			rep.Completed, rep.Sessions, rep.Failed, rep.TimedOut, rep.Panicked)
	}
	if rep.LedgerViolations != 0 {
		t.Errorf("%d ledger violations across the crash window", rep.LedgerViolations)
	}
	if len(rep.Chaos) != 2 {
		t.Fatalf("report has %d chaos events, want 2", len(rep.Chaos))
	}
	if rep.Chaos[0].Kind != ChaosOriginCrash || rep.Chaos[1].Kind != ChaosOriginRestart {
		t.Fatalf("chaos order: %s, %s", rep.Chaos[0].Kind, rep.Chaos[1].Kind)
	}
	for _, c := range rep.Chaos {
		if c.Origins == 0 {
			t.Errorf("chaos %s touched no origins", c.Kind)
		}
		if !c.Recovered {
			t.Errorf("chaos %s never recovered", c.Kind)
		}
	}
	if rep.MTTR == nil {
		t.Fatal("report lacks MTTR quantiles")
	}
	if s := rep.Summary(); !strings.Contains(s, "chaos") || !strings.Contains(s, "mttr") {
		t.Errorf("summary lacks the chaos lines:\n%s", s)
	}
}
