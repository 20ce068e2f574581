package harness

// Swarm acceptance: a real-socket population run. 32 MP-DASH sessions
// arrive open-loop over one second, sharing a shaped server tier, with
// a heterogeneous profile mix (WiFi-preferred and LTE-preferred) and
// Zipf-ranked content. The run must complete every session with zero
// ledger violations, produce coherent population quantiles, and show
// cellular traffic from both the LTE-preferred cohort and deadline
// assists — the scale claim of the swarm subsystem exercised end-to-end.

import (
	"context"
	"testing"
	"time"

	"mpdash/internal/swarm"
)

func TestRealSocketSwarmPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm acceptance test in -short mode")
	}
	scn := swarm.Scenario{
		Name:     "harness-acceptance",
		Sessions: 32,
		Arrival:  swarm.Arrival{Kind: swarm.ArrivalPoisson, Over: swarm.Duration(time.Second)},
		Seed:     11,
		Catalog: []swarm.CatalogItem{
			{Name: "clip-a", ChunkMs: 200, Chunks: 6, LevelsMbps: []float64{0.3, 0.6}},
			{Name: "clip-b", ChunkMs: 200, Chunks: 4, LevelsMbps: []float64{0.3}},
			{Name: "clip-c", ChunkMs: 100, Chunks: 8, LevelsMbps: []float64{0.2, 0.4, 0.8}},
		},
		Profiles: []swarm.Profile{
			{Name: "wifi-gpac", Weight: 0.6, ABR: "gpac"},
			{Name: "wifi-bba", Weight: 0.2, ABR: "bba"},
			{Name: "lte-first", Weight: 0.2, ABR: "gpac", Preference: "lte"},
		},
		// Shaped so the link paces every session: arrivals overlap
		// because transfers take time, as on a real tier.
		Servers: swarm.Servers{WiFiMbps: 4, LTEMbps: 2},
	}
	sw, err := swarm.New(scn)
	if err != nil {
		t.Fatal(err)
	}
	sw.KeepSessions = true
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Completed != 32 || rep.Failed != 0 || rep.Panicked != 0 || rep.TimedOut != 0 {
		t.Fatalf("population: completed=%d failed=%d timedout=%d panicked=%d",
			rep.Completed, rep.Failed, rep.TimedOut, rep.Panicked)
	}
	if rep.LedgerViolations != 0 {
		t.Fatalf("%d sessions finished with unverified chunks", rep.LedgerViolations)
	}
	if rep.Chunks == 0 || rep.BytesTotal == 0 {
		t.Fatalf("no traffic recorded: chunks=%d bytes=%d", rep.Chunks, rep.BytesTotal)
	}
	// Population quantiles must be ordered and positive.
	q := rep.StartupDelayS
	if q.P50 <= 0 || q.P50 > q.P95 || q.P95 > q.P99 || q.P99 > q.Max {
		t.Errorf("startup quantiles malformed: %+v", q)
	}
	// The LTE-preferred cohort alone guarantees cellular bytes.
	if rep.CellularByteShare <= 0 || rep.CellularByteShare >= 1 {
		t.Errorf("cellular share %.3f outside (0, 1)", rep.CellularByteShare)
	}
	// The tier must have actually been shared: far fewer origins than
	// sessions, and the peak connection count should reflect overlap.
	if rep.Server.Origins >= 32 {
		t.Errorf("%d origins for 32 sessions — tier not shared", rep.Server.Origins)
	}
	if rep.Server.PeakConns < 4 {
		t.Errorf("peak %d tier connections — arrivals did not overlap", rep.Server.PeakConns)
	}
	// Per-profile accounting: the LTE-preferred cohort's traffic is all
	// cellular; the WiFi cohorts' is not.
	for _, p := range rep.PerProfile {
		switch p.Name {
		case "lte-first":
			if p.Sessions > 0 && p.CellularByteShare != 1 {
				t.Errorf("lte-first cellular share %.3f, want 1", p.CellularByteShare)
			}
		default:
			if p.Sessions > 0 && p.CellularByteShare == 1 {
				t.Errorf("%s is all-cellular", p.Name)
			}
		}
	}
}
