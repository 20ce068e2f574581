package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mpdash/internal/field"
	"mpdash/internal/harness"
	"mpdash/internal/trace"
)

// sim-field is fixed work, not a timed loop: the 33-location field study
// at fieldChunksPerSecond × --seconds chunks per session (60 at the
// 12 s the benchmark is run with, the study the issue names). The
// catalogue carries its own seeds, so --seed has no effect here.
const fieldChunksPerSecond = 5

// traceSlots matches field.RunStudy's own trace length (15 min at 100 ms).
const (
	traceSlot  = 100 * time.Millisecond
	traceSlots = 9000
)

// pinnedSavings are the cellular-savings percentiles of the 60-chunk
// study at the parent commit (d5ffa0b), measured on amd64. RunStudy
// documents determinism, so they must repeat bit for bit there; other
// architectures may fuse multiply-adds, so the pins do not bind them.
var pinnedSavings = map[float64]float64{
	25: 0.21644183593413632,
	50: 0.4673024742468825,
	75: 0.9208616574516317,
}

// fieldSetup is what happens before a study's first session: the
// catalogue is loaded and both bandwidth traces of every location are
// generated and validated (RunStudy regenerates them from the same
// seeds, so this checks its inputs without handing them over).
func fieldSetup(h *hostRef) (locs []field.Location, took time.Duration, err error) {
	took = h.timed(func() {
		locs = field.Locations()
		for _, l := range locs {
			for _, tr := range []*trace.Trace{l.WiFiTrace(traceSlot, traceSlots), l.LTETrace(traceSlot, traceSlots)} {
				if err = tr.Validate(); err != nil {
					return
				}
			}
		}
	})
	return locs, took, err
}

// fieldRun is one study, run location by location so each has a span,
// a time and a host reading of its own; the work is RunStudy's.
type fieldRun struct {
	result    field.StudyResult
	chunkMS   []float64     // ms per simulated chunk, one per location
	slices    []costSlice   // what each location cost
	slowdown  []float64     // the host reading each location's time was divided by
	wall      time.Duration // the locations' wall time as the clock read it
	attempted int64
	failed    int64
	problems  []string
}

// runStudy times each location in reference seconds when h is set (the
// timed pass) and in wall time when it is nil.
func runStudy(locs []field.Location, chunks int, rec *recorder, parent int64, h *hostRef) *fieldRun {
	fr := &fieldRun{}
	const sessions = 6      // two baselines and four MP-DASH arms per location
	reading := h.slowdown() // one between every two locations, and one at each end
	for _, loc := range locs {
		fr.attempted += sessions * int64(chunks)
		_, end := rec.begin("field.RunStudy", parent, loc.Name)
		before := takeSnapshot()
		res, err := field.RunStudy(field.StudyConfig{Locations: []field.Location{loc}, Chunks: chunks})
		c := takeSnapshot().since(before)
		end()
		last := reading
		reading = h.slowdown()
		slow := (last + reading) / 2
		fr.wall += c.wall
		c.wall = time.Duration(float64(c.wall) / slow)
		if err != nil {
			fr.failed += sessions * int64(chunks)
			fr.problems = append(fr.problems, err.Error())
			continue
		}
		out := res.Outcomes[0]
		fr.result.Outcomes = append(fr.result.Outcomes, out)
		fr.chunkMS = append(fr.chunkMS, ms(c.wall)/float64(sessions*chunks))
		fr.slices = append(fr.slices, costSlice{cost: c, chunks: sessions * int64(chunks)})
		fr.slowdown = append(fr.slowdown, slow)
		for _, s := range sessionsOf(out) {
			if got := s.Report.Chunks; got != chunks {
				fr.failed += int64(chunks - got)
				fr.problems = append(fr.problems, fmt.Sprintf("%s: session played %d of %d chunks", loc.Name, got, chunks))
			}
		}
	}
	return fr
}

func sessionsOf(o *field.LocationOutcome) []*harness.SessionResult {
	var out []*harness.SessionResult
	for _, a := range []harness.Algorithm{harness.FESTIVE, harness.BBA} {
		out = append(out, o.Baseline[a])
	}
	for _, k := range field.SchemeKeys() {
		out = append(out, o.MPDash[k])
	}
	return out
}

// qoe writes the study's own results as the delivery-quality metrics:
// the MP-DASH arms' on-time share, WiFi byte share and mean level. They
// are simulation outputs, so they repeat exactly.
func (fr *fieldRun) qoe(v, exact map[string]float64) {
	var governed, missed, wifi, lte, levels, chunks int64
	for _, o := range fr.result.Outcomes {
		for _, k := range field.SchemeKeys() {
			s := o.MPDash[k]
			governed += s.Governed
			missed += s.DeadlineMisses
			wifi += s.Report.PathBytes["wifi"]
			lte += s.Report.PathBytes["lte"]
			for _, c := range s.Report.Results {
				levels += int64(c.Meta.Level)
				chunks++
			}
		}
	}
	v["deadline_met_share"] = 1 - float64(missed)/float64(max(governed, 1))
	v["wifi_byte_share"] = float64(wifi) / float64(max(wifi+lte, 1))
	v["avg_level"] = float64(levels) / float64(max(chunks, 1))
	for _, k := range []string{"deadline_met_share", "wifi_byte_share", "avg_level"} {
		exact[k] = v[k]
	}
	for _, p := range []float64{25, 50, 75} {
		exact[fmt.Sprintf("savings_p%.0f", p)] = pct(fr.result.AllSavings(), p)
	}
}

// checkPinned compares the study's savings percentiles with the pinned
// ones; only the 60-chunk study has pins.
func (fr *fieldRun) checkPinned(o *outcome, chunks int) {
	if chunks != 60 || runtime.GOARCH != "amd64" {
		o.notef("no pinned results for a %d-chunk study on %s; the test checks that two runs agree instead", chunks, runtime.GOARCH)
		return
	}
	for p, want := range pinnedSavings {
		if got := pct(fr.result.AllSavings(), p); math.Float64bits(got) != math.Float64bits(want) {
			o.problemf("cellular savings p%.0f = %v, pinned %v", p, got, want)
		}
	}
}

func runField(cfg runConfig) (*outcome, error) {
	chunks := max(1, int(cfg.window.Seconds()*fieldChunksPerSecond))
	if cfg.trace {
		return runFieldTraced(cfg, max(1, chunks/2))
	}
	h, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer h.close()
	locs, first, err := fieldSetup(h)
	if err != nil {
		return nil, err
	}
	// Warm-up: one short session set, so the first location does not
	// pay for heap growth the others do not.
	runStudy(locs[:1], 2, nil, 0, nil)
	fr := runStudy(locs, chunks, nil, 0, h)
	after := takeSnapshot()
	setup, err := medianSetup(first, func() (time.Duration, error) {
		_, d, err := fieldSetup(h)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome(fr.attempted, fr.failed, fr.problems)
	o.values["setup_s"] = setup
	delivered := fr.attempted - fr.failed
	var total cost
	for _, s := range fr.slices {
		total.wall += s.cost.wall
		total.mallocs += s.cost.mallocs
		total.allocBytes += s.cost.allocBytes
	}
	windowCost{total: total, end: after, slices: fr.slices}.perChunk(o.values, delivered)
	chunkMS(o.values, fr.chunkMS)
	fr.qoe(o.values, o.exact)
	fr.checkPinned(o, chunks)
	o.notef("fixed work, single-threaded: %d locations × 6 sessions × %d simulated chunks = %d chunks (%d chunk_ms samples, one per location); --seed has no effect",
		len(locs), chunks, delivered, len(fr.chunkMS))
	o.notef("times are in reference seconds: each location's wall time over the host reading around it (median %.3f, from %.3f to %.3f; 1 is the reference box with quiet neighbours). By the wall clock the study took %.2f s, %.1f chunks/s",
		pct(fr.slowdown, 50), pct(fr.slowdown, 0), pct(fr.slowdown, 100), fr.wall.Seconds(), float64(delivered)/fr.wall.Seconds())
	return o, nil
}
