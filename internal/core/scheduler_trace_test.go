package core

import (
	"testing"
	"time"

	"mpdash/internal/obs"
	"mpdash/internal/trace"
)

func TestSchedulerTraceTightDeadline(t *testing.T) {
	// Tight deadline: the secondary engages, so the trace must carry a
	// sched-category path-on span for lte and finish ok.
	w := trace.Constant("w", 3.8, time.Second, 1)
	l := trace.Constant("l", 3.0, time.Second, 1)
	_, c, sch := rig(t, w, l, 1)
	sch.Tracer = obs.NewTracer(obs.TraceConfig{HeadSampleRate: 1, Seed: 11})
	sch.TraceSession = 7
	warm(t, c)
	governedDownload(t, c, sch, 5_000_000, 7*time.Second)

	recs := sch.Tracer.Records()
	if len(recs) != 1 {
		t.Fatalf("kept %d traces, want 1 per activation", len(recs))
	}
	rec := recs[0]
	if rec.Session != 7 || rec.Chunk != 0 {
		t.Errorf("trace coords = session %d chunk %d, want 7/0", rec.Session, rec.Chunk)
	}
	if rec.Verdict != obs.TraceOK {
		t.Errorf("verdict = %s, want ok (deadline was met)", rec.Verdict)
	}
	lteOn := false
	for _, sp := range rec.Spans {
		if sp.Category == obs.CatSched && sp.Path == "lte" {
			lteOn = true
			if sp.DurUS <= 0 {
				t.Errorf("lte enabled interval has no duration: %+v", sp)
			}
		}
	}
	if !lteOn {
		t.Error("no sched span for the engaged lte path")
	}
}

func TestSchedulerTraceMissedDeadline(t *testing.T) {
	// An impossible deadline: the trace finishes missed with an overrun.
	w := trace.Constant("w", 3.8, time.Second, 1)
	l := trace.Constant("l", 3.0, time.Second, 1)
	_, c, sch := rig(t, w, l, 1)
	// Head rate 0 proves tail sampling alone keeps the missed trace.
	sch.Tracer = obs.NewTracer(obs.TraceConfig{Seed: 11})
	warm(t, c)
	governedDownload(t, c, sch, 5_000_000, 2*time.Second)
	if sch.DeadlineMisses() == 0 {
		t.Fatal("miss not counted")
	}
	recs := sch.Tracer.Records()
	if len(recs) != 1 {
		t.Fatalf("missed trace not kept at head rate 0: %d records", len(recs))
	}
	rec := recs[0]
	if rec.Verdict != obs.TraceMissed || rec.OverrunUS <= 0 {
		t.Errorf("verdict=%s overrun=%dus, want missed with positive overrun",
			rec.Verdict, rec.OverrunUS)
	}
	// The miss budget attributes the whole overrun.
	attrs := obs.CriticalPath(rec)
	if attrs == nil {
		t.Fatal("no critical-path attribution for the missed transfer")
	}
	var sum float64
	for _, a := range attrs {
		sum += a.OverrunUS
	}
	if diff := sum - float64(rec.OverrunUS); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("attributions sum to %.3f, want %d", sum, rec.OverrunUS)
	}
}
