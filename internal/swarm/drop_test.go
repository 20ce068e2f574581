package swarm

// Capacity-drop and graceful-degradation tests: a mid-run tier-wide
// capacity collapse must rescale the right origins, and a population
// running with doomed-chunk abort plus the shared congestion board must
// ride through the collapse — downgrading instead of failing, with the
// degradation visible in the aggregated report.

import (
	"context"
	"strings"
	"testing"
	"time"

	"mpdash/internal/dash"
)

func TestApplyDropRescalesByLinkClass(t *testing.T) {
	scn := tinyScenario(4).withDefaults()
	scn.Servers.WiFiMbps = 8
	scn.Servers.LTEMbps = 4
	plan, err := Plan(scn)
	if err != nil {
		t.Fatal(err)
	}
	videos := make([]*dash.Video, len(scn.Catalog))
	for i, c := range scn.Catalog {
		videos[i] = c.video(i)
	}
	tr, err := startTier(&scn, videos, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()

	wifiN, lteN := 0, 0
	for _, m := range tr.meta {
		if m.kind == "wifi" {
			wifiN++
		} else {
			lteN++
		}
	}
	// Drop only the WiFi class: exactly the wifi origins change.
	if got := tr.applyDrop(0.5, 1); got != wifiN {
		t.Errorf("applyDrop(0.5, 1) changed %d origins, want %d wifi", got, wifiN)
	}
	for i := range tr.servers {
		// WiFi 8*0.5 = 4; LTE untouched at 4.
		if tr.meta[i].rate != 4.0 {
			t.Errorf("origin %d (%s) rate %g, want 4", i, tr.meta[i].kind, tr.meta[i].rate)
		}
	}
	// Both classes: every shaped origin changes; factors compound.
	if got := tr.applyDrop(0.5, 0.5); got != wifiN+lteN {
		t.Errorf("applyDrop(0.5, 0.5) changed %d origins, want %d", got, wifiN+lteN)
	}
	// Degenerate factors are no-ops.
	if got := tr.applyDrop(1, 1); got != 0 {
		t.Errorf("applyDrop(1, 1) changed %d origins", got)
	}
	if got := tr.applyDrop(0, 0); got != 0 {
		t.Errorf("applyDrop(0, 0) changed %d origins", got)
	}
}

func TestApplyDropSkipsUnshaped(t *testing.T) {
	scn := tinyScenario(4).withDefaults() // no Servers rates: unshaped
	plan, err := Plan(scn)
	if err != nil {
		t.Fatal(err)
	}
	videos := make([]*dash.Video, len(scn.Catalog))
	for i, c := range scn.Catalog {
		videos[i] = c.video(i)
	}
	tr, err := startTier(&scn, videos, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	if got := tr.applyDrop(0.25, 0.25); got != 0 {
		t.Errorf("applyDrop rescaled %d unshaped origins", got)
	}
}

// dropScenario is a single-video population whose sessions are all
// mid-flight when the tier capacity collapses to a tenth.
func dropScenario(n int, degrade bool) Scenario {
	scn := Scenario{
		Sessions: n,
		Arrival:  Arrival{Kind: ArrivalUniform, Over: Duration(200 * time.Millisecond)},
		Seed:     42,
		Catalog: []CatalogItem{
			{Name: "drop-v", ChunkMs: 100, Chunks: 12, LevelsMbps: []float64{0.2, 0.4, 0.8}},
		},
		Profiles: []Profile{
			{Name: "wifi", Weight: 0.7, ABR: "gpac"},
			{Name: "lte", Weight: 0.3, ABR: "gpac", Preference: "lte"},
		},
		Chaos: []ChaosEvent{{
			At: Duration(300 * time.Millisecond), Kind: ChaosCapacityDrop, WiFiFactor: 0.1, LTEFactor: 0.1,
		}},
	}
	scn.Servers.WiFiMbps = 16
	scn.Servers.LTEMbps = 16
	if degrade {
		scn.Abort = &AbortSpec{}
		scn.Board = true
	}
	return scn
}

func TestSwarmCapacityDropWithGracefulDegradation(t *testing.T) {
	sw, err := New(dropScenario(16, true))
	if err != nil {
		t.Fatal(err)
	}
	sw.KeepSessions = true
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sessions {
		t.Fatalf("completed %d of %d (failed=%d timedout=%d panicked=%d)",
			rep.Completed, rep.Sessions, rep.Failed, rep.TimedOut, rep.Panicked)
	}
	if rep.LedgerViolations != 0 {
		t.Errorf("%d ledger violations across the drop", rep.LedgerViolations)
	}
	if rep.Aborts == 0 {
		t.Error("no doomed-chunk aborts despite a 10x capacity collapse mid-flight")
	}
	if rep.Downgrades < rep.Aborts {
		t.Errorf("downgrades %d < aborts %d — every abort must downgrade",
			rep.Downgrades, rep.Aborts)
	}
	// The degradation line must surface in the human summary.
	if s := rep.Summary(); !strings.Contains(s, "degradation") {
		t.Errorf("summary lacks the degradation line:\n%s", s)
	}
}

func TestSwarmCapacityDropAbortOffStillCompletes(t *testing.T) {
	// Same collapse, mechanism off (CI's linkdrop step and the off arm of
	// abort's gate): sessions must still complete (ride-it-out), with
	// zero aborts.
	sw, err := New(dropScenario(12, false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sessions {
		t.Fatalf("completed %d of %d", rep.Completed, rep.Sessions)
	}
	if rep.Aborts != 0 || rep.Downgrades != 0 {
		t.Errorf("abort machinery moved while disabled: aborts=%d downgrades=%d",
			rep.Aborts, rep.Downgrades)
	}
	if rep.LedgerViolations != 0 {
		t.Errorf("%d ledger violations", rep.LedgerViolations)
	}
}
