package swarm

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpdash/internal/audit"
	"mpdash/internal/netmp"
)

func TestQuantilesOf(t *testing.T) {
	if q := quantilesOf(nil); q.P50 != 0 || q.Max != 0 {
		t.Errorf("empty sample: %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	q := quantilesOf(xs)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 {
		t.Errorf("quantiles of 1..100: %+v", q)
	}
	if q.Mean != 50.5 {
		t.Errorf("mean %g, want 50.5", q.Mean)
	}
	one := quantilesOf([]float64{7})
	if one.P50 != 7 || one.P99 != 7 || one.Max != 7 {
		t.Errorf("single sample: %+v", one)
	}
}

func TestAggregateAndReportRoundTrip(t *testing.T) {
	scn := tinyScenario(4).withDefaults()
	outs := []SessionOutcome{
		{
			ID: 0, Video: "tiny-a", Profile: "wifi",
			Result: &netmp.StreamResult{
				Chunks: 4, StartupDelay: 100 * time.Millisecond,
				DeadlineMisses: 1, AllVerified: true,
				PrimaryBytes: 800, SecondaryBytes: 200,
				Stalls: 1, StallTime: 50 * time.Millisecond,
			},
			TotalBytes: 1000, CellularBytes: 200, RebufferRatio: 0.1,
		},
		{
			ID: 1, Video: "tiny-b", Profile: "lte",
			Result: &netmp.StreamResult{
				Chunks: 3, StartupDelay: 200 * time.Millisecond, AllVerified: false,
				PrimaryBytes: 600,
			},
			TotalBytes: 600, CellularBytes: 600,
		},
		{ID: 2, Video: "tiny-a", Profile: "wifi", Err: "dial refused"},
		{ID: 3, Video: "tiny-c", Profile: "wifi", Panicked: true, Err: "panic: x"},
	}
	rep := aggregate(&scn, outs, ServerReport{Origins: 6, ServedBytes: 1600}, 2*time.Second, 3)
	if rep.Sessions != 4 || rep.Completed != 2 || rep.Failed != 1 || rep.Panicked != 1 {
		t.Errorf("outcome counts: %+v", rep)
	}
	if rep.Chunks != 7 || rep.DeadlineMisses != 1 {
		t.Errorf("chunks=%d misses=%d", rep.Chunks, rep.DeadlineMisses)
	}
	if rep.LedgerViolations != 1 {
		t.Errorf("ledger violations %d, want 1", rep.LedgerViolations)
	}
	if want := 800.0 / 1600.0; rep.CellularByteShare != want {
		t.Errorf("cellular share %g, want %g", rep.CellularByteShare, want)
	}
	if rep.DeadlineMissRate != 1.0/7 {
		t.Errorf("miss rate %g", rep.DeadlineMissRate)
	}
	if rep.StartupDelayS.Max != 0.2 {
		t.Errorf("startup max %g", rep.StartupDelayS.Max)
	}

	path := filepath.Join(t.TempDir(), "BENCH_swarm.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sessions != rep.Sessions || got.CellularByteShare != rep.CellularByteShare ||
		got.Server.ServedBytes != 1600 {
		t.Errorf("round trip mismatch: %+v", got)
	}

	sum := rep.Summary()
	for _, want := range []string{"startup", "rebuffering", "cellular", "ledger", "per profile"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestWastedBytesCountsEveryKindOnce: the report's waste is fault bytes,
// failed and late payload and hedge losers, each byte once, and the
// auditor's waste bound sees hedge losers alone.
func TestWastedBytesCountsEveryKindOnce(t *testing.T) {
	scn := tinyScenario(2).withDefaults()
	out := func(res *netmp.StreamResult) SessionOutcome {
		return SessionOutcome{Video: "tiny-a", Profile: "wifi", Result: res,
			TotalBytes: res.PrimaryBytes + res.SecondaryBytes}
	}
	rep := aggregate(&scn, []SessionOutcome{
		out(&netmp.StreamResult{Chunks: 4, AllVerified: true, PrimaryBytes: 1000,
			WastedBytes: 10, WastedPrimaryBytes: 100, WastedSecondaryBytes: 20, HedgeWastedBytes: 3}),
		out(&netmp.StreamResult{Chunks: 4, AllVerified: true, PrimaryBytes: 1000, HedgeWastedBytes: 7}),
	}, ServerReport{}, time.Second, 2)
	if rep.WastedBytes != 10+100+20+3+7 || rep.HedgeWastedBytes != 10 {
		t.Errorf("wasted %d (hedge %d), want 140 (hedge 10)", rep.WastedBytes, rep.HedgeWastedBytes)
	}

	// Hedge losers alone, over the auditor's bound, trip it.
	rep = aggregate(&scn, []SessionOutcome{
		out(&netmp.StreamResult{Chunks: 4, AllVerified: true, PrimaryBytes: 4 << 20, HedgeWastedBytes: 3 << 20}),
	}, ServerReport{}, time.Second, 1)
	a := audit.New(audit.Config{SettleTimeout: time.Millisecond, GoroutineSlack: 1 << 20})
	a.CheckTotals(rep.LedgerViolations, rep.WastedBytes, rep.BytesTotal)
	res := a.Finish()
	if len(res.Violations) != 1 || res.Violations[0].Invariant != audit.InvWaste {
		t.Errorf("hedge waste of 3 MiB over 4 MiB delivered: %s", res.Summary())
	}
}
