package analysis

import (
	"bytes"
	"testing"
	"time"

	"mpdash/internal/abr"
	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/mptcp"
	"mpdash/internal/pcaplite"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// capturedSession runs a full MP-DASH session with a live memory recorder
// attached to the transport, returning the report and the packet trace.
func capturedSession(t *testing.T, chunks int) (*dash.Report, *pcaplite.Trace) {
	t.Helper()
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: trace.Constant("w", 3.8, time.Second, 1), RTT: 50 * time.Millisecond, Primary: true},
			{Name: "lte", Rate: trace.Constant("l", 3.0, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &MemoryRecorder{PathNames: conn.PathNames()}
	conn.SetRecorder(rec)
	p, err := dash.NewPlayer(s, conn, dash.BigBuckBunny(), fixedLevelABR{level: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(chunks)
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.Trace()
}

// capturedSessionMPDash is capturedSession with the MP-DASH scheduler and
// adapter attached, on a WiFi-rich network so governed chunks run with
// the secondary disabled.
func capturedSessionMPDash(t *testing.T, chunks int) (*dash.Report, *pcaplite.Trace) {
	t.Helper()
	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Paths: []mptcp.PathSpec{
			{Name: "wifi", Rate: trace.Constant("w", 20, time.Second, 1), RTT: 50 * time.Millisecond, Primary: true},
			{Name: "lte", Rate: trace.Constant("l", 10, time.Second, 1), RTT: 60 * time.Millisecond, Cost: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &MemoryRecorder{PathNames: conn.PathNames()}
	conn.SetRecorder(rec)
	sched, err := core.NewScheduler(s, conn, 1)
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := abr.NewAdapter(sched, conn, abr.AdapterConfig{Policy: abr.RateBased})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dash.NewPlayer(s, conn, dash.BigBuckBunny(), abr.NewFESTIVE(), adapter)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(chunks)
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.Trace()
}

type fixedLevelABR struct{ level int }

func (f fixedLevelABR) Name() string                     { return "fixed" }
func (f fixedLevelABR) SelectLevel(dash.PlayerState) int { return f.level }

func TestCorrelateMatchesPlayerAccounting(t *testing.T) {
	rep, tr := capturedSession(t, 10)
	cts, err := Correlate(tr, rep.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 10 {
		t.Fatalf("%d chunk traces", len(cts))
	}
	for i, ct := range cts {
		res := rep.Results[i]
		if ct.Chunk != res.Meta.Index {
			t.Fatalf("chunk order mismatch at %d", i)
		}
		// Packet-level reconstruction must agree with the player's own
		// per-chunk accounting.
		for path, want := range res.PathBytes {
			if got := ct.PathBytes[path]; got != want {
				t.Errorf("chunk %d path %s: trace %d != report %d", i, path, got, want)
			}
		}
		if ct.Segments == 0 {
			t.Errorf("chunk %d has no segments", i)
		}
		if ct.End <= ct.Start {
			t.Errorf("chunk %d window inverted", i)
		}
	}
}

func TestCorrelateRoundTripsThroughBinaryFormat(t *testing.T) {
	rep, tr := capturedSession(t, 5)
	// Serialize and re-read the trace, then correlate the parsed copy.
	var buf bytes.Buffer
	w, err := pcaplite.NewWriter(&buf, tr.Paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := pcaplite.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := Correlate(parsed, rep.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 5 {
		t.Fatalf("%d chunk traces", len(cts))
	}
	var total int64
	for _, ct := range cts {
		for _, b := range ct.PathBytes {
			total += b
		}
	}
	var want int64
	for _, res := range rep.Results {
		for _, b := range res.PathBytes {
			want += b
		}
	}
	if total != want {
		t.Errorf("trace total %d != report total %d", total, want)
	}
}

func TestCorrelateDecisionBit(t *testing.T) {
	// Under MP-DASH, segments captured while the secondary is disabled
	// must carry a zero decision bit — so the per-chunk on-fraction is
	// below 1 for governed chunks that ran WiFi-only.
	rep, tr := capturedSessionMPDash(t, 12)
	cts, err := Correlate(tr, rep.Events())
	if err != nil {
		t.Fatal(err)
	}
	sawOff := false
	for _, ct := range cts {
		if ct.Segments > 0 && ct.MPDashOnFrac < 0.5 {
			sawOff = true
		}
	}
	if !sawOff {
		t.Error("no chunk shows the secondary-disabled decision bit")
	}
}

func TestCorrelateErrors(t *testing.T) {
	if _, err := Correlate(nil, nil); err == nil {
		t.Error("nil trace accepted")
	}
	// Done without start.
	tr := &pcaplite.Trace{Paths: []string{"wifi"}}
	events := []dash.Event{{Kind: dash.EventChunkDone, Chunk: 0}}
	if _, err := Correlate(tr, events); err == nil {
		t.Error("orphan chunk-done accepted")
	}
}
