package harness

import (
	"reflect"
	"strings"
	"testing"

	"mpdash/internal/dash"
)

// TestRunSessionsMatchesSerial: a mixed batch run on the pool, sharing one
// pair of traces and one video, returns slot for slot what serial
// RunSession calls return. CI runs it at -cpu 1,2,4, so the worker count is
// shown not to change a result.
func TestRunSessionsMatchesSerial(t *testing.T) {
	wifi, lte, video := w(3.8), l(3.0), dash.BigBuckBunny()
	var cfgs []SessionConfig
	for i, algo := range []Algorithm{GPAC, FESTIVE, BBA, BBAC, MPC, SVAA} {
		for j, scheme := range []Scheme{Baseline, MPDashRate, MPDashDuration, WiFiOnly} {
			cfgs = append(cfgs, SessionConfig{
				WiFi: wifi, LTE: lte, Video: video, Algorithm: algo, Scheme: scheme,
				Chunks: 4 + (i+j)%5, RTTJitterFrac: 0.1 * float64(j%2),
			})
		}
	}
	cfgs = append(cfgs, SessionConfig{WiFi: wifi, LTE: lte, Scheme: ThrottleLTE, ThrottleMbps: 1, Chunks: 6})

	got, err := RunSessions(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d results for %d configs", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := RunSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Report, want.Report) {
			t.Errorf("session %d (%s/%s): pooled report differs from the serial one", i, cfg.Algorithm, cfg.Scheme)
		}
		if got[i].RadioJ() != want.RadioJ() || got[i].DeadlineMisses != want.DeadlineMisses || got[i].Wall != want.Wall {
			t.Errorf("session %d (%s/%s): pooled energy/misses/wall differ from the serial ones", i, cfg.Algorithm, cfg.Scheme)
		}
	}

	empty, err := RunSessions(nil)
	if err != nil || empty == nil || len(empty) != 0 {
		t.Errorf("empty batch: got %v, %v; want an empty result and no error", empty, err)
	}
}

// TestRunSessionsLowestIndexError: with invalid configs in the batch,
// RunSessions returns the lowest-index one's error, naming its index, and
// no results.
func TestRunSessionsLowestIndexError(t *testing.T) {
	ok := SessionConfig{WiFi: w(3.8), LTE: l(3.0), Chunks: 2}
	cfgs := []SessionConfig{ok, ok, ok, ok, ok, ok}
	cfgs[2].Scheme = ThrottleLTE // no ThrottleMbps
	cfgs[4].Algorithm = "nope"
	cfgs[5].WiFi = nil
	got, err := RunSessions(cfgs)
	if err == nil {
		t.Fatal("invalid configs accepted")
	}
	if got != nil {
		t.Errorf("got %d results alongside the error", len(got))
	}
	_, want := RunSession(cfgs[2])
	if msg := err.Error(); !strings.Contains(msg, "session 2:") || !strings.HasSuffix(msg, want.Error()) {
		t.Errorf("error %q, want session 2's %q", msg, want)
	}
}
