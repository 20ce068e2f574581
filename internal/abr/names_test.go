package abr_test

import (
	"fmt"
	"testing"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/dash"
	"mpdash/internal/harness"
	"mpdash/internal/swarm"
	"mpdash/internal/trace"
)

// TestNewNames: every harness Algorithm and every spelling a swarm
// profile documents builds the algorithm it names, and an unknown name
// fails here, in a harness session and in a swarm scenario.
func TestNewNames(t *testing.T) {
	// Two rungs keep FastMPC's table cheap to build.
	video := &dash.Video{Name: "v", ChunkDuration: 4 * time.Second, NumChunks: 10,
		Levels: []dash.Level{{ID: 0, AvgBitrateMbps: 1}, {ID: 1, AvgBitrateMbps: 2}}}
	want := map[string]string{ // name → concrete type and Name()
		string(harness.GPAC):    "*abr.GPAC GPAC",
		string(harness.FESTIVE): "*abr.FESTIVE FESTIVE",
		string(harness.BBA):     "*abr.BBA BBA",
		string(harness.BBAC):    "*abr.BBA BBA-C",
		string(harness.MPC):     "*abr.MPC MPC",
		string(harness.FastMPC): "*abr.FastMPC FastMPC",
		string(harness.SVAA):    "*abr.SVAA SVAA",
		// The spellings swarm.Profile.ABR lists.
		"gpac": "*abr.GPAC GPAC", "bba": "*abr.BBA BBA", "bbac": "*abr.BBA BBA-C",
		"festive": "*abr.FESTIVE FESTIVE", "mpc": "*abr.MPC MPC",
		"fastmpc": "*abr.FastMPC FastMPC", "svaa": "*abr.SVAA SVAA",
	}
	for _, a := range harness.Algorithms() {
		if _, ok := want[string(a)]; !ok {
			t.Errorf("harness algorithm %q has no row", a)
		}
	}
	for name, w := range want {
		ra, err := abr.New(name, video)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if got := fmt.Sprintf("%T %s", ra, ra.Name()); got != w {
			t.Errorf("New(%q) = %s, want %s", name, got, w)
		}
	}

	for _, name := range []string{"", "nope", "bba c"} {
		if _, err := abr.New(name, video); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
	flat := trace.Constant("flat", 4, time.Second, 1)
	if _, err := harness.RunSession(harness.SessionConfig{WiFi: flat, LTE: flat, Algorithm: "nope", Chunks: 1}); err == nil {
		t.Error("harness accepted an unknown algorithm")
	}
	for name, ok := range map[string]bool{"": true, "BBA-C": true, "nope": false} {
		s := swarm.Scenario{Sessions: 1, Arrival: swarm.Arrival{Kind: swarm.ArrivalUniform}, Catalog: swarm.DefaultCatalog(),
			Profiles: []swarm.Profile{{Name: "p", Weight: 1, ABR: name}}}
		if err := s.Validate(); (err == nil) != ok {
			t.Errorf("swarm profile abr %q: Validate() = %v", name, err)
		}
	}
}
