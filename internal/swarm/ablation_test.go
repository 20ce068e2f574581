//go:build ablation

package swarm

// Ablation gates: a mechanism netmp adds to the paper keeps its lines
// only while it wins a gated metric over a population of seeds, paired
// seed by seed, so that no single draw decides. Each run is a full
// 1000-session scenario (about 10 s on 2 vCPUs), so these run nightly,
// not per push:
//
//	go test -tags ablation -count=1 -timeout 40m -v -run Ablation ./internal/swarm

import (
	"context"
	"testing"
)

// The paired rule: over seeds 1..ablationSeeds, the treated arm must
// lower the deadline-miss rate in at least ablationWins of the pairs.
// With no effect, 22 or more wins of 32 come up by chance 2.5 % of the
// time; an arm that wins a pair with probability 0.85 fails 0.5 % of the
// time, and one that wins with 0.8 fails 4 %.
const (
	ablationSeeds = 32
	ablationWins  = 22
)

// TestAblationAbortLowersLinkdropMisses is doomed-chunk abort's gate: on
// scenarios/linkdrop.json (a tier-wide 0.25× capacity drop mid-run),
// -abort against abort off. The arm that runs first alternates by seed.
func TestAblationAbortLowersLinkdropMisses(t *testing.T) {
	base, err := LoadScenario("../../scenarios/linkdrop.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64, abort bool) *Report {
		scn := *base
		scn.Seed = seed
		if abort {
			scn.Abort = &AbortSpec{}
		}
		sw, err := New(scn)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.LedgerViolations != 0 || rep.Chunks == 0 {
			t.Fatalf("seed %d abort=%v: %d ledger violations over %d chunks", seed, abort, rep.LedgerViolations, rep.Chunks)
		}
		return rep
	}
	wins := 0
	for seed := int64(1); seed <= ablationSeeds; seed++ {
		var off, on *Report
		if seed%2 == 1 {
			off, on = run(seed, false), run(seed, true)
		} else {
			on, off = run(seed, true), run(seed, false)
		}
		if on.DeadlineMissRate < off.DeadlineMissRate {
			wins++
		}
		t.Logf("seed %2d: miss rate %.4f off, %.4f abort (%d aborts); avg level %.3f → %.3f",
			seed, off.DeadlineMissRate, on.DeadlineMissRate, on.Aborts, off.AvgLevel, on.AvgLevel)
	}
	if wins < ablationWins {
		t.Errorf("abort lowered the miss rate in %d of %d seeds, want ≥ %d", wins, ablationSeeds, ablationWins)
	}
}
