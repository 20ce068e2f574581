package harness

// Telemetry acceptance: a real-socket chaos session with full telemetry
// on — journal streamed to JSONL, /metrics scraped live over HTTP — must
// produce per-path byte/redial/breaker/hedge series, chunk-deadline
// histograms, and a journal that renders into a per-chunk decision
// timeline showing subflow engagement with the driving estimate.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
)

func TestRealSocketTelemetryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry acceptance test in -short mode")
	}
	video := chaosVideo()

	// Chaos primary: connection resets and short stalls; clean secondary.
	primary, err := netmp.NewChunkServerWithFaults(video, 6, &netmp.FaultPlan{
		Seed: 21, ResetProb: 0.15, StallProb: 0.05, StallFor: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	secondary, err := netmp.NewChunkServer(video, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()

	f, err := netmp.NewFetcher(video, primary.Addr(), secondary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Retry = netmp.RetryPolicy{
		IOTimeout:   time.Second,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
	st := &netmp.Streamer{Fetcher: f, ABR: abr.NewGPAC(), RateBased: true}

	// Full telemetry: journal → JSONL file, registry → live HTTP.
	tel := obs.New()
	jpath := filepath.Join(t.TempDir(), "session.jsonl")
	jf, err := os.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	tel.Journal.StreamTo(jf)
	ms, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	st.Instrument(tel)
	primary.Instrument(tel)
	secondary.Instrument(tel)

	res, err := st.Stream(8)
	if err != nil {
		t.Fatalf("session failed: %v (res=%+v)", err, res)
	}
	if res.Chunks != 8 {
		t.Fatalf("played %d chunks, want 8", res.Chunks)
	}

	// --- live scrape ---
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		// per-path byte and redial series
		`mpdash_path_bytes_total{path="primary"}`,
		`mpdash_path_bytes_total{path="secondary"}`,
		`mpdash_path_redials_total{path="primary"}`,
		// breaker and hedge series
		`mpdash_origin_breaker_state{origin="` + primary.Addr() + `",path="primary"}`,
		`mpdash_hedges_total{result="issued"}`,
		// chunk-deadline histograms
		"mpdash_chunk_duration_seconds_bucket",
		`mpdash_chunk_deadline_slack_seconds_count 8`,
		"mpdash_chunks_total",
		// server-side series
		`mpdash_server_served_bytes_total{addr="` + primary.Addr() + `"}`,
		`mpdash_server_injected_faults_total{addr="` + primary.Addr() + `",kind="reset"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// --- journal → timeline ---
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	events, err := obs.ReadJournal(rf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != tel.Journal.Total() {
		t.Errorf("JSONL has %d events, journal appended %d", len(events), tel.Journal.Total())
	}

	var engages int
	for _, e := range events {
		if e.Type == "path.engage" {
			engages++
			if _, ok := e.Num["rate_bps"]; !ok {
				t.Error("engage event without driving estimate")
			}
		}
	}
	// The startup chunk's minimal deadline forces at least one engagement.
	if engages == 0 {
		t.Error("chaos session never engaged the secondary")
	}

	var tl strings.Builder
	obs.RenderTimeline(&tl, events)
	timeline := tl.String()
	for _, want := range []string{
		"chunk 0", "chunk 7", // every chunk present
		"ENGAGE", // subflow toggles...
		"est=",   // ...with the driving estimate
		": start size=",
		": done in",
	} {
		if !strings.Contains(timeline, want) {
			t.Errorf("timeline missing %q\n%.2000s", want, timeline)
		}
	}
}
