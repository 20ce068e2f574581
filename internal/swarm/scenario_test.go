package swarm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{Sessions: 10}.withDefaults()
	if s.Arrival.Kind != ArrivalPoisson || s.Arrival.Over.D() != 10*time.Second {
		t.Errorf("arrival defaults: %+v", s.Arrival)
	}
	if s.MaxActive != 10 || s.Seed != 1 || s.ZipfS != 1.0 {
		t.Errorf("defaults: max=%d seed=%d zipf=%g", s.MaxActive, s.Seed, s.ZipfS)
	}
	if len(s.Catalog) == 0 || len(s.Profiles) == 0 {
		t.Fatal("default catalog/profiles missing")
	}
	if s.SessionTimeout <= 0 {
		t.Error("session timeout not defaulted")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("defaulted scenario invalid: %v", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Sessions: 0},
		{Sessions: 5, Arrival: Arrival{Kind: "bogus", Over: Duration(time.Second)}},
		{Sessions: 5, Catalog: []CatalogItem{{Name: "x"}}}, // no chunk_ms/levels
		{Sessions: 5, Profiles: []Profile{{Name: "p", Weight: 1, ABR: "nope"}}},
		{Sessions: 5, Profiles: []Profile{{Name: "p", Weight: 1, Preference: "satellite"}}},
		{Sessions: 5, Profiles: []Profile{{Name: "p", Weight: -1}}},
		{Sessions: 5, Servers: Servers{Faults: &FaultSpec{ResetProb: 1.5}}},
		{Sessions: 5, Servers: Servers{Faults: &FaultSpec{CorruptProb: -2}}},
		{Sessions: 5, Servers: Servers{Faults: &FaultSpec{StallProb: 1.01}}},
		{Sessions: 5, Servers: Servers{Faults: &FaultSpec{CloseProb: -0.1}}},
	}
	for i, s := range bad {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	for _, c := range []struct {
		in   string
		want time.Duration
	}{
		{`"1.5s"`, 1500 * time.Millisecond},
		{`"250ms"`, 250 * time.Millisecond},
		{`5000000000`, 5 * time.Second}, // raw nanoseconds
	} {
		if err := json.Unmarshal([]byte(c.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if d.D() != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, d.D(), c.want)
		}
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Error("bogus duration accepted")
	}
	b, err := json.Marshal(Duration(750 * time.Millisecond))
	if err != nil || string(b) != `"750ms"` {
		t.Errorf("marshal = %s, %v", b, err)
	}
}

func TestLoadScenarioRoundTrip(t *testing.T) {
	scn := tinyScenario(12)
	scn.Name = "roundtrip"
	scn.SessionTimeout = Duration(3 * time.Second)
	scn.Servers = Servers{WiFiMbps: 20, LTEMbps: 10, MaxConns: 64,
		Faults: &FaultSpec{ResetProb: 0.01}}
	b, err := json.MarshalIndent(scn, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" || got.Sessions != 12 ||
		got.Arrival.Over.D() != 200*time.Millisecond ||
		got.Servers.Faults == nil || got.Servers.Faults.ResetProb != 0.01 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte("{nope"), 0o644)
	if _, err := LoadScenario(badPath); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("bad JSON: %v", err)
	}
}

// TestLoadScenarioStrict: a misspelled key or trailing data fails the load
// instead of running with defaults.
func TestLoadScenarioStrict(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"misspelled.json": `{"sessions": 4, "max_actve": 2}`,
		"nested.json":     `{"sessions": 4, "arrival": {"kind": "uniform", "ovr": "1s"}}`,
		"trailing.json":   `{"sessions": 4} {"sessions": 5}`,
		"garbage.json":    `{"sessions": 4}]`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenario(path); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v, want an error naming the file", name, err)
		}
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte("{\"sessions\": 4, \"max_active\": 2}\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := LoadScenario(path); err != nil || s.MaxActive != 2 {
		t.Errorf("trailing white space: %+v, %v", s, err)
	}
}

// TestLoadChaosStrict: a scenario's chaos stanza is decoded strictly — a
// misspelled key (a drop that would do nothing) or a stanza that is not
// an array fails the load.
func TestLoadChaosStrict(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"misspelled.json": `{"sessions": 4, "chaos": [{"at": "4s", "kind": "capacity_drop", "wifi_factr": 0.25}]}`,
		"object.json":     `{"sessions": 4, "chaos": {"at": "4s", "kind": "capacity_restore"}}`,
		"trailing.json":   `{"sessions": 4, "chaos": [{"at": "4s", "kind": "capacity_restore"}]} []`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenario(path); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v, want an error naming the file", name, err)
		}
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte(`{"sessions": 4, "chaos": [{"at": "4s", "kind": "capacity_drop", "wifi_factor": 0.25}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScenario(path)
	if err != nil || len(s.Chaos) != 1 || s.Chaos[0].WiFiFactor != 0.25 {
		t.Errorf("valid chaos stanza: %+v, %v", s, err)
	}
}

// FuzzDecodeScenario: the scenario decoder never panics, and a scenario
// it accepts that validates (after defaults) also plans, without a panic,
// into one spec per session. Seeded with every committed scenario, a
// bad base fault mix and bad gate bounds.
func FuzzDecodeScenario(f *testing.F) {
	seeds, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, "testdata/paced-swarm.json") {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A base fault mix out of [0, 1] must not validate.
	f.Add([]byte(`{"sessions": 4, "servers": {"faults": {"reset_prob": 1.5, "corrupt_prob": -2}}}`))
	// A miss-rate bound outside [0, 1] or a negative bound must not
	// validate.
	f.Add([]byte(`{"sessions": 4, "gates": {"max_miss_rate": 1.5, "min_chunks_per_s": -40}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		scn, err := decodeScenario(b)
		if err != nil {
			return
		}
		// Planning is linear in sessions; keep an iteration fast.
		if d := scn.withDefaults(); d.Sessions > 5000 || d.Validate() != nil {
			return
		}
		specs, err := Plan(*scn)
		if err != nil {
			t.Fatalf("validated scenario does not plan: %v", err)
		}
		if len(specs) != scn.Sessions {
			t.Fatalf("%d specs for %d sessions", len(specs), scn.Sessions)
		}
	})
}
