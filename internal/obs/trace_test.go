package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mpdash/internal/stats"
)

// fakeClock hands out strictly increasing instants so span boundaries
// are deterministic.
func fakeClock() func() time.Time {
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

// fakeTracer is a Tracer stamped by fakeClock.
func fakeTracer(cfg TraceConfig) *Tracer {
	tr := NewTracer(cfg)
	tr.nowFn = fakeClock()
	return tr
}

// buildTrace records one synthetic chunk life: a fetch envelope, two
// segments, a requeue marker, and a missed deadline.
func buildTrace(tr *Tracer, session, chunk int) {
	t := tr.StartTrace(session, chunk, 2)
	t.SetDeadline(100 * time.Millisecond)
	fsp := t.StartSpan(CatFetch, "fetch")
	fsp.SetNum("size", 4096)
	s1 := t.StartSpan(CatSegment, "segment")
	s1.SetPath("wifi")
	s1.End()
	t.Event(CatRequeue, "requeue")
	t.MarkBad(CatRequeue)
	s2 := t.StartSpan(CatSegment, "segment")
	s2.SetPath("lte")
	s2.End()
	fsp.End()
	t.SetOverrun(5 * time.Millisecond)
	t.Finish(TraceMissed)
}

func TestTracerDeterministicIDs(t *testing.T) {
	export := func() string {
		tr := fakeTracer(TraceConfig{HeadSampleRate: 0, Seed: 99})
		for s := 0; s < 3; s++ {
			for c := 0; c < 4; c++ {
				buildTrace(tr, s, c)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("same seed and same event sequence produced different exports")
	}
	if a == "" {
		t.Fatal("no traces exported")
	}
	recs, err := ReadTraceJSONL(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.TraceID == "" {
			t.Fatal("empty trace ID")
		}
	}
	// A different seed must move the trace IDs.
	other := NewTracer(TraceConfig{Seed: 100}).StartTrace(0, 0, 2)
	if id0 := recs[0].TraceID; id0 == fmt.Sprintf("%016x", other.ID()) {
		t.Errorf("seed change did not move trace ID %s", id0)
	}
}

func TestTracerSpanOrderDeterministic(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 1, Seed: 1})
	buildTrace(tr, 0, 0)
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("kept %d traces", len(recs))
	}
	spans := recs[0].Spans
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.StartUS > b.StartUS || (a.StartUS == b.StartUS && a.ID > b.ID) {
			t.Fatalf("spans out of (start, id) order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestTailSamplingKeepsEveryBadTrace: every bad trace is kept whatever
// the head sample says. At seed 42 the head sample itself is pinned: it
// is reproducible from the seed alone.
func TestTailSamplingKeepsEveryBadTrace(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		seed        int64
		missEvery   int
		wantSampled int64 // 0: not pinned
	}{
		{seed: 7, missEvery: 20},
		{seed: 42, missEvery: 10, wantSampled: 91},
	} {
		tr := fakeTracer(TraceConfig{HeadSampleRate: 0.1, Seed: c.seed})
		for i := 0; i < n; i++ {
			tc := tr.StartTrace(0, i, 1)
			if i%c.missEvery == 0 {
				tc.SetOverrun(time.Millisecond)
				tc.Finish(TraceMissed)
			} else {
				tc.Finish(TraceOK)
			}
		}
		st := tr.Stats()
		wantBad := int64(n / c.missEvery)
		if st.KeptBad != wantBad {
			t.Errorf("seed %d: kept %d bad traces, want every one of the %d", c.seed, st.KeptBad, wantBad)
		}
		if st.Started != n || st.Finished != n {
			t.Errorf("seed %d: started/finished = %d/%d, want %d/%d", c.seed, st.Started, st.Finished, n, n)
		}
		if st.Kept != st.KeptBad+st.KeptSampled || st.Dropped != n-st.Kept {
			t.Errorf("seed %d: counter identity broken: %+v", c.seed, st)
		}
		// The head sample keeps roughly 10% of the healthy traces.
		healthy := n - wantBad
		if st.KeptSampled == 0 || st.KeptSampled > healthy/2 {
			t.Errorf("seed %d: head-sampled %d of %d healthy traces at rate 0.1", c.seed, st.KeptSampled, healthy)
		}
		if c.wantSampled != 0 && st.KeptSampled != c.wantSampled {
			t.Errorf("seed %d: head-sampled %d healthy traces, want %d", c.seed, st.KeptSampled, c.wantSampled)
		}
		// Every missed chunk's trace must be retrievable.
		missed := 0
		for _, rec := range tr.Records() {
			if rec.Verdict == TraceMissed {
				missed++
				if rec.OverrunUS <= 0 {
					t.Errorf("seed %d: missed trace chunk %d lacks overrun", c.seed, rec.Chunk)
				}
			}
		}
		if int64(missed) != wantBad {
			t.Errorf("seed %d: %d missed traces in the export, want %d", c.seed, missed, wantBad)
		}
	}
}

func TestTailSamplingCapDropsOnlyHealthy(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 1, Seed: 1})
	tr.maxKept = 4
	for i := 0; i < 16; i++ {
		tc := tr.StartTrace(0, i, 1)
		tc.Finish(TraceOK)
	}
	// Cap reached: further healthy traces drop, bad ones still keep.
	bad := tr.StartTrace(0, 99, 1)
	bad.MarkBad(CatAbort)
	bad.Finish(TraceFailed)
	st := tr.Stats()
	if st.KeptSampled != 4 {
		t.Errorf("kept %d sampled traces, want the cap of 4", st.KeptSampled)
	}
	if st.KeptBad != 1 {
		t.Errorf("bad trace dropped by the cap: %+v", st)
	}
}

func TestFinishDanglingKeepsPanicTrace(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 0, Seed: 1})
	tc := tr.StartTrace(3, 8, 1)
	tc.StartSpan(CatFetch, "fetch")
	tr.FinishDangling(3, TracePanic)
	tr.FinishDangling(3, TracePanic) // idempotent: nothing open now
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Verdict != TracePanic {
		t.Fatalf("records = %+v, want one panic trace", recs)
	}
	if len(recs[0].Spans) != 1 {
		t.Errorf("dangling span lost: %+v", recs[0].Spans)
	}
}

func TestDisabledTracingZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		tc := tr.StartTrace(0, 1, 2)
		tc.SetDeadline(time.Second)
		sp := tc.StartSpan(CatFetch, "fetch")
		sp.SetPath("wifi")
		sp.SetNum("size", 1)
		sp.SetStr("k", "v")
		sp.End()
		tc.Event(CatRequeue, "requeue")
		tc.MarkBad(CatRequeue)
		tc.SetOverrun(time.Millisecond)
		tc.Finish(TraceMissed)
		tr.FinishDangling(0, TracePanic)
		_ = tr.Stats()
		_ = tr.Records()
		_ = tc.ID()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per op, want 0", allocs)
	}
}

// traceChunkOp performs one synthetic chunk fetch — segment-sized FNV
// sweeps standing in for payload verification — traced through tr when
// non-nil. The compute dwarfs the tracing calls the way a real network
// fetch does, so the enabled-vs-disabled delta is a representative
// per-chunk overhead fraction.
func traceChunkOp(tr *Tracer, buf []byte, chunk int) uint64 {
	const segs = 4
	t := tr.StartTrace(0, chunk, 1)
	t.SetDeadline(time.Second)
	fsp := t.StartSpan(CatFetch, "fetch")
	fsp.SetNum("size", float64(len(buf)))
	sum := stats.FNVOffset
	segLen := len(buf) / segs
	for s := 0; s < segs; s++ {
		ssp := t.StartSpan(CatSegment, "segment")
		ssp.SetPath("wifi")
		ssp.SetNum("seg", float64(s))
		for _, c := range buf[s*segLen : (s+1)*segLen] {
			sum = stats.FNVMix(sum, uint64(c))
		}
		ssp.End()
	}
	fsp.End()
	t.Finish(TraceOK)
	return sum
}

func traceChunkBuf() []byte {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

// TestTraceChunkAllocs counts the traced chunk op with tracing enabled at
// head rate 0: healthy traces are dropped at Finish, so the kept set stays
// empty however many times it runs. Allocations and bytes may grow by at
// most 15 % over the counts recorded here.
func TestTraceChunkAllocs(t *testing.T) {
	const baseAllocs, baseBytes = 20, 2232
	tr := NewTracer(TraceConfig{HeadSampleRate: 0, Seed: 1})
	buf := traceChunkBuf()
	i := 0
	var sink uint64
	allocs, bytes := memPerRun(1000, func() {
		sink += traceChunkOp(tr, buf, i)
		i++
	})
	if float64(allocs) > baseAllocs*1.15 || float64(bytes) > baseBytes*1.15 {
		t.Errorf("traced chunk: %d allocs, %d B per op; want at most %v and %v (base × 1.15)",
			allocs, bytes, baseAllocs*1.15, baseBytes*1.15)
	}
}

// TestTracingOverheadBound: the traced chunk op runs within 15 % of the
// untraced one, as the median over nine rounds of 2,000 ops each way.
// Rounds alternate which loop goes first, so a host stall lands on the
// plain side as often as on the traced one, and the median drops it.
func TestTracingOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the two loops unequally; the bound is held without -race")
	}
	const ops, rounds = 2000, 9
	buf := traceChunkBuf()
	var sink uint64
	loop := func(tr *Tracer) time.Duration {
		start := time.Now()
		for i := 0; i < ops; i++ {
			sink += traceChunkOp(tr, buf, i)
		}
		return time.Since(start)
	}
	traced := func() time.Duration { return loop(NewTracer(TraceConfig{HeadSampleRate: 0, Seed: 1})) }
	var ratios [rounds]float64
	for k := range ratios {
		var plain, with time.Duration
		if k%2 == 0 {
			plain, with = loop(nil), traced()
		} else {
			with, plain = traced(), loop(nil)
		}
		ratios[k] = float64(with-plain) / float64(plain)
	}
	sort.Float64s(ratios[:])
	median := ratios[rounds/2]
	t.Logf("tracing overhead per chunk: %.3f (rounds %.3f)", median, ratios)
	if median > 0.15 {
		t.Errorf("traced chunk op %.1f %% slower than untraced (median of %d rounds), want at most 15 %%", 100*median, rounds)
	}
}

func TestCriticalPathSumsToOverrun(t *testing.T) {
	rec := &TraceRecord{
		TraceID: "t", Verdict: TraceMissed,
		DurUS: 1000, OverrunUS: 300,
		Spans: []SpanRecord{
			// fetch envelope over [0,900); segments cover [0,400) and
			// [500,900) inside it; a backoff nested in the second segment
			// wins [600,700). [900,1000) is uncovered → chunk.
			{ID: 1, Category: CatFetch, Name: "fetch", StartUS: 0, DurUS: 900},
			{ID: 2, Category: CatSegment, Name: "segment", StartUS: 0, DurUS: 400},
			{ID: 3, Category: CatSegment, Name: "segment", StartUS: 500, DurUS: 400},
			{ID: 4, Category: CatBackoff, Name: "backoff", StartUS: 600, DurUS: 100},
			{ID: 5, Category: CatRequeue, Name: "requeue", StartUS: 450, DurUS: 0}, // instant: no cover
		},
	}
	attrs := CriticalPath(rec)
	if attrs == nil {
		t.Fatal("no attribution for a missed trace")
	}
	byCat := map[string]SpanAttribution{}
	sum := 0.0
	for _, a := range attrs {
		byCat[a.Category] = a
		sum += a.OverrunUS
	}
	if math.Abs(sum-float64(rec.OverrunUS)) > 1e-9 {
		t.Errorf("attributions sum to %.3f, want exactly %d", sum, rec.OverrunUS)
	}
	// Busy partition: segment 400+300=700, backoff 100, fetch 100
	// ([400,500) where only the envelope is active), chunk 100 (gap).
	want := map[string]float64{CatSegment: 700, CatBackoff: 100, CatFetch: 100, CatChunk: 100}
	for cat, us := range want {
		if byCat[cat].BusyUS != us {
			t.Errorf("%s busy = %.0fus, want %.0f", cat, byCat[cat].BusyUS, us)
		}
	}
	if len(byCat) != len(want) {
		t.Errorf("categories = %v, want %v", byCat, want)
	}
	// Descending overrun order.
	for i := 1; i < len(attrs); i++ {
		if attrs[i].OverrunUS > attrs[i-1].OverrunUS {
			t.Errorf("attributions not sorted: %+v", attrs)
		}
	}
	// No attribution without an overrun.
	if CriticalPath(&TraceRecord{DurUS: 100}) != nil {
		t.Error("attributed an on-time chunk")
	}
}

func TestBuildMissBudgetShares(t *testing.T) {
	recs := []*TraceRecord{
		{DurUS: 100, OverrunUS: 100, Spans: []SpanRecord{
			{ID: 1, Category: CatRedial, StartUS: 0, DurUS: 100},
		}},
		{DurUS: 200, OverrunUS: 100, Spans: []SpanRecord{
			{ID: 1, Category: CatSegment, StartUS: 0, DurUS: 100},
		}},
		{DurUS: 100}, // on time: skipped
	}
	mb := BuildMissBudget(recs)
	if mb.Missed != 2 || mb.TotalOverrunUS != 200 {
		t.Fatalf("missed/total = %d/%.0f, want 2/200", mb.Missed, mb.TotalOverrunUS)
	}
	shares := map[string]float64{}
	total := 0.0
	for _, c := range mb.Categories {
		shares[c.Category] = c.Share
		total += c.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %.4f, want 1", total)
	}
	// redial: 100 of trace 1. segment: half of trace 2's overrun (50);
	// chunk: the other half.
	if shares[CatRedial] != 0.5 || shares[CatSegment] != 0.25 || shares[CatChunk] != 0.25 {
		t.Errorf("shares = %v", shares)
	}
	// Per-trace quantiles include zero contributions from traces the
	// category never appeared in.
	for _, c := range mb.Categories {
		if c.P50US != 0 && c.P95US < c.P50US {
			t.Errorf("%s quantiles inverted: %+v", c.Category, c)
		}
	}
	var sb strings.Builder
	mb.Render(&sb)
	if !strings.Contains(sb.String(), "2 missed chunks") {
		t.Errorf("render: %q", sb.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 1, Seed: 1})
	buildTrace(tr, 5, 9)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	instants, completes := 0, 0
	for _, e := range out.TraceEvents {
		if e.PID != 5 || e.TID != 9 {
			t.Errorf("event %s pid/tid = %d/%d, want 5/9", e.Name, e.PID, e.TID)
		}
		switch e.Ph {
		case "i":
			instants++
		case "X":
			completes++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if instants == 0 || completes == 0 {
		t.Errorf("instants/completes = %d/%d, want both", instants, completes)
	}
}

// TestTracerExport: Export writes both files, the JSONL reads back with
// ReadTraceJSONL as the kept records, the Chrome file is the same bytes
// WriteChrome renders, and an empty path writes nothing.
func TestTracerExport(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 1, Seed: 1})
	buildTrace(tr, 0, 0)
	buildTrace(tr, 1, 3)
	dir := t.TempDir()
	jsonl, chrome := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "t.json")
	if err := tr.Export(jsonl, chrome); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTraceJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.Records(); len(want) != 2 || !reflect.DeepEqual(recs, want) {
		t.Errorf("read back %+v, want the kept %+v", recs, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(chrome); err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("Chrome file differs from WriteChrome (err %v)", err)
	}
	if err := tr.Export("", ""); err != nil {
		t.Errorf("Export with no paths: %v", err)
	}
	if err := tr.Export(filepath.Join(dir, "missing", "t.jsonl"), ""); err == nil {
		t.Error("Export into a missing directory succeeded")
	}
}

func TestReadTraceJSONLTruncatedTail(t *testing.T) {
	tr := fakeTracer(TraceConfig{HeadSampleRate: 1, Seed: 1})
	buildTrace(tr, 0, 0)
	buildTrace(tr, 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(whole, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	// Chop the last line mid-JSON: a crashed writer.
	cut := lines[0] + lines[1][:len(lines[1])/2]
	recs, err := ReadTraceJSONL(strings.NewReader(cut))
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("err = %v, want ErrTruncatedTail", err)
	}
	if len(recs) != 1 || recs[0].Chunk != 0 {
		t.Fatalf("parsed prefix = %+v, want the first trace", recs)
	}
	// A malformed line that is NOT last stays a hard error.
	bad := "{oops}\n" + lines[0]
	if _, err := ReadTraceJSONL(strings.NewReader(bad)); errors.Is(err, ErrTruncatedTail) || err == nil {
		t.Fatalf("mid-file corruption err = %v, want a hard error", err)
	}
	// Intact input round-trips clean.
	recs, err = ReadTraceJSONL(strings.NewReader(whole))
	if err != nil || len(recs) != 2 {
		t.Fatalf("round trip: %d recs, err %v", len(recs), err)
	}
}
