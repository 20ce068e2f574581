package netmp

import (
	"strings"
	"testing"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// TestFetcherClockInjection freezes the fetcher's wall clock and checks
// the timing fields derive from it: with time standing still, a real
// fetch reports zero duration (and therefore no deadline miss).
func TestFetcherClockInjection(t *testing.T) {
	_, _, f := streamRig(t, 50, 50)
	frozen := time.Now()
	f.SetClock(func() time.Time { return frozen })

	res, err := f.FetchChunk(0, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 0 {
		t.Errorf("frozen clock produced Duration = %v, want 0", res.Duration)
	}
	if res.MissedBy != 0 {
		t.Errorf("frozen clock produced MissedBy = %v, want 0", res.MissedBy)
	}
	f.SetClock(nil) // restore time.Now
	res, err = f.FetchChunk(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Errorf("real clock produced Duration = %v, want > 0", res.Duration)
	}
}

// TestInstrumentedFetchChunkEvents checks the per-chunk journal span and
// the scrape-time metrics of an instrumented fetcher.
func TestInstrumentedFetchChunkEvents(t *testing.T) {
	_, _, f := streamRig(t, 50, 50)
	tel := obs.New()
	f.Instrument(tel)

	if _, err := f.FetchChunk(0, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var start, first, done bool
	for _, e := range tel.Journal.Events() {
		if e.Chunk != 0 {
			continue
		}
		switch e.Type {
		case "chunk.start":
			start = true
			if e.Num["size"] <= 0 || e.Num["segments"] <= 0 {
				t.Errorf("chunk.start payload incomplete: %+v", e.Num)
			}
		case "chunk.firstbyte":
			first = true
			if e.Num["elapsed_s"] < 0 {
				t.Errorf("negative first-byte latency: %v", e.Num["elapsed_s"])
			}
		case "chunk.done":
			done = true
			if e.Num["duration_s"] <= 0 {
				t.Errorf("chunk.done without duration: %+v", e.Num)
			}
		}
	}
	if !start || !first || !done {
		t.Errorf("span incomplete: start=%v firstbyte=%v done=%v", start, first, done)
	}

	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mpdash_chunks_total{result="met"} 1`,
		`mpdash_path_up{path="primary"} 1`,
		`mpdash_path_bytes_total{path="primary"}`,
		`mpdash_origin_breaker_state{origin=`,
		`mpdash_chunk_duration_seconds_count 1`,
		`mpdash_chunk_first_byte_seconds_count 1`,
		`mpdash_hedges_total{result="issued"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestEngageEventUnderPressure starves the primary so the secondary must
// engage, and checks the journal records the toggle with the driving
// numbers (measured rate, remaining bytes, window left).
func TestEngageEventUnderPressure(t *testing.T) {
	// A chunk far larger than the server burst (64KB), a primary far too
	// slow for the deadline, a fast secondary: the controller must engage.
	v := &dash.Video{
		Name:          "pressure",
		ChunkDuration: 2 * time.Second,
		NumChunks:     4,
		SizeSeed:      3,
		Levels:        []dash.Level{{ID: 1, AvgBitrateMbps: 4}},
	}
	ps, err := NewChunkServer(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServer(v, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f, err := NewFetcher(v, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tel := obs.New()
	f.Instrument(tel)

	if _, err := f.FetchChunk(0, 0, 800*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	engaged, withWork := false, false
	for _, e := range tel.Journal.Events() {
		if e.Type != "path.engage" {
			continue
		}
		engaged = true
		if e.Path != "secondary" {
			t.Errorf("engage on path %q, want secondary", e.Path)
		}
		if _, ok := e.Num["rate_bps"]; !ok {
			t.Error("engage event missing rate_bps")
		}
		if e.Num["remaining_bytes"] > 0 {
			withWork = true
		}
		if _, ok := e.Str["reason"]; !ok {
			t.Error("engage event missing reason")
		}
	}
	if !engaged {
		t.Fatal("no path.engage event despite a starved primary")
	}
	if !withWork {
		t.Error("no engage event carried a positive remaining_bytes")
	}

	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `mpdash_secondary_toggles_total{action="engage"}`) {
		t.Error("engage counter not exposed")
	}
}

// TestUninstrumentedFetchEmitsNothing pins the off switch: without
// Instrument no handles exist and FetchChunk takes the nil fast path.
func TestUninstrumentedFetchEmitsNothing(t *testing.T) {
	_, _, f := streamRig(t, 50, 50)
	if fo := f.obsHandles(); fo != nil {
		t.Fatal("fresh fetcher has observation handles")
	}
	if _, err := f.FetchChunk(0, 0, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestStreamerInstrument checks the streamer-level series land in the
// registry and the journal sees stream-side events alongside the
// fetcher's. The session is long enough to fill the buffer past Φ, and
// every extension names the one Φ the simulator's adapter uses too:
// core.PhiFrac of a buffer of 8 chunk durations.
func TestStreamerInstrument(t *testing.T) {
	const chunks = 10
	_, _, f := streamRig(t, 50, 50)
	st := &Streamer{Fetcher: f, ABR: constABR(1)}
	tel := obs.New()
	st.Instrument(tel)

	if _, err := st.Stream(chunks); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"mpdash_stream_stalls_total 0",
		"mpdash_stream_buffer_seconds",
		`mpdash_chunks_total{result="met"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every chunk completed one way or another (the startup chunk's
	// deliberately minimal deadline may count as missed, never failed).
	wantPhi := time.Duration(core.PhiFrac * float64(8*f.Video.ChunkDuration)).Seconds()
	var done, extends int
	for _, e := range tel.Journal.Events() {
		switch e.Type {
		case "chunk.done":
			done++
		case "stream.extend":
			extends++
			if got := e.Num["phi_s"]; got != wantPhi {
				t.Errorf("chunk %d: stream.extend phi_s = %v, want %v", e.Chunk, got, wantPhi)
			}
		}
	}
	if done != chunks {
		t.Errorf("chunk.done events = %d, want %d", done, chunks)
	}
	if extends == 0 {
		t.Error("no stream.extend event: the buffer never passed Φ")
	}
	if strings.Contains(out, `result="failed"} 1`) {
		t.Error("a chunk failed on clean paths")
	}
}

// constABR always picks the same ladder index.
type constABR int

func (c constABR) SelectLevel(dash.PlayerState) int { return int(c) }

func (constABR) Name() string { return "const" }
