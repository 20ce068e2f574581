package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mpdash/internal/stats"
)

// Span categories. The critical-path walker attributes deadline overrun
// to these, so instrumentation sites should pick the most specific one
// that describes what the chunk was waiting on.
const (
	CatChunk     = "chunk"     // the root interval: whole-chunk slack / unattributed time
	CatSched     = "sched"     // scheduler / ABR decision time
	CatFetch     = "fetch"     // a FetchChunk call (outer envelope of the transfer)
	CatSegment   = "segment"   // one segment transfer on one path
	CatRedial    = "redial"    // supervisor redial loop (dial + origin failover)
	CatBackoff   = "backoff"   // supervisor backoff sleep between attempts
	CatHedge     = "hedge"     // hedged backup request in flight
	CatAbort     = "abort"     // doom-monitor abort fired
	CatDowngrade = "downgrade" // post-abort rendition-downgrade refetch
	CatRefetch   = "refetch"   // lifeline lowest-level refetch after exhaustion
	CatRequeue   = "requeue"   // segment requeued to the surviving path
	CatStall     = "stall"     // playback stall charged to this chunk
	CatCache     = "cache"     // edge-cache miss: waiting on an origin fill
)

// Trace verdicts: the terminal state a chunk's trace is finished with.
const (
	TraceOK     = "ok"
	TraceMissed = "missed"
	TraceLost   = "lost"
	TraceFailed = "failed"
	TracePanic  = "panic"
)

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// HeadSampleRate is the fraction of healthy (verdict ok, no bad
	// marks) traces kept, in [0, 1]. Traces that miss their deadline,
	// abort, downgrade, requeue, get lost or panic are always kept
	// regardless of this rate (tail-based sampling).
	HeadSampleRate float64
	// Seed makes trace IDs deterministic across runs (0 means 1).
	Seed int64
}

// Tracer buffers per-chunk span traces until their terminal state and
// applies tail-based sampling at Finish time. A nil *Tracer is the off
// switch: every method on it, and on the nil *Trace / nil *Span values
// it hands out, is a no-op, so disabled tracing costs one nil check and
// zero allocations on the hot path. Safe for concurrent use.
type Tracer struct {
	rate  float64
	seed  uint64
	nowFn func() time.Time // stamps span boundaries: time.Now, or a test's clock
	// maxKept bounds the retained trace count (1<<20). At the cap,
	// healthy head-sampled traces are dropped; bad-verdict traces are
	// always kept.
	maxKept int

	mu          sync.Mutex
	kept        []*Trace
	open        map[int]*Trace // in-flight trace per session
	started     int64
	finished    int64
	keptBad     int64
	keptSampled int64
	dropped     int64
}

// NewTracer returns a Tracer with the given config.
func NewTracer(cfg TraceConfig) *Tracer {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Tracer{
		rate:    cfg.HeadSampleRate,
		seed:    uint64(seed),
		nowFn:   time.Now,
		maxKept: 1 << 20,
		open:    make(map[int]*Trace),
	}
}

// traceID derives the deterministic 64-bit trace ID from the tracer
// seed, the session and the chunk index (FNV-1a over the three words).
func traceID(seed uint64, session, chunk int) uint64 {
	h := stats.FNVOffset
	for _, w := range [3]uint64{seed, uint64(int64(session)), uint64(int64(chunk))} {
		for i := 0; i < 8; i++ {
			h = stats.FNVMix(h, (w>>(8*i))&0xff)
		}
	}
	return h
}

// headSampled decides, deterministically from the trace ID alone,
// whether a healthy trace is kept.
func (tr *Tracer) headSampled(id uint64) bool {
	if tr.rate >= 1 {
		return true
	}
	if tr.rate <= 0 {
		return false
	}
	// Re-scramble so the decision is independent of the ID's low bits.
	x := id
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%1_000_000) < tr.rate*1_000_000
}

// StartTrace opens the trace for one chunk's life. The returned *Trace
// is nil when the tracer is nil, and every method on a nil *Trace is a
// no-op. One trace per session may be in flight at a time; starting a
// new one for the same session replaces (and abandons) any unfinished
// predecessor.
func (tr *Tracer) StartTrace(session, chunk, level int) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{
		tracer:  tr,
		id:      traceID(tr.seed, session, chunk),
		session: session,
		chunk:   chunk,
		level:   level,
		start:   tr.nowFn(),
	}
	tr.mu.Lock()
	tr.started++
	tr.open[session] = t
	tr.mu.Unlock()
	return t
}

// FinishDangling finishes the session's in-flight trace, if any, with
// the given verdict. Panic-recovery paths use it to keep the trace of
// the chunk that was in flight when the session died. Nil-safe.
func (tr *Tracer) FinishDangling(session int, verdict string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	t := tr.open[session]
	tr.mu.Unlock()
	if t != nil {
		t.MarkBad(verdict)
		t.Finish(verdict)
	}
}

// finish applies the tail-sampling decision for one finished trace.
func (tr *Tracer) finish(t *Trace, bad bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.open[t.session] == t {
		delete(tr.open, t.session)
	}
	tr.finished++
	switch {
	case bad:
		tr.kept = append(tr.kept, t)
		tr.keptBad++
	case tr.headSampled(t.id) && len(tr.kept) < tr.maxKept:
		tr.kept = append(tr.kept, t)
		tr.keptSampled++
	default:
		tr.dropped++
	}
}

// TraceStats summarizes a tracer's sampling behaviour.
type TraceStats struct {
	Started     int64 `json:"started"`
	Finished    int64 `json:"finished"`
	Kept        int64 `json:"kept"`
	KeptBad     int64 `json:"kept_bad"`
	KeptSampled int64 `json:"kept_sampled"`
	Dropped     int64 `json:"dropped"`
}

// Stats returns the sampling counters. Nil-safe.
func (tr *Tracer) Stats() TraceStats {
	if tr == nil {
		return TraceStats{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceStats{
		Started:     tr.started,
		Finished:    tr.finished,
		Kept:        int64(len(tr.kept)),
		KeptBad:     tr.keptBad,
		KeptSampled: tr.keptSampled,
		Dropped:     tr.dropped,
	}
}

// Records snapshots every kept trace as an exportable record, in finish
// order. Nil-safe. Safe to call while traces are still being recorded:
// unfinished spans in a kept trace are clamped to the trace end.
func (tr *Tracer) Records() []*TraceRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	kept := make([]*Trace, len(tr.kept))
	copy(kept, tr.kept)
	tr.mu.Unlock()
	out := make([]*TraceRecord, 0, len(kept))
	for _, t := range kept {
		out = append(out, t.record())
	}
	return out
}

// Trace is one chunk's span buffer. All methods are nil-safe and safe
// for concurrent use: fetch workers, hedge goroutines and the doom
// monitor append spans to the same trace.
type Trace struct {
	tracer  *Tracer
	id      uint64
	session int
	chunk   int
	level   int
	start   time.Time

	mu       sync.Mutex
	spans    []*Span
	nextID   int
	reasons  []string
	deadline time.Duration
	overrun  time.Duration
	end      time.Time
	finished bool
	verdict  string
}

// ID returns the deterministic trace ID (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetDeadline records the chunk's deadline window.
func (t *Trace) SetDeadline(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.deadline = d
	t.mu.Unlock()
}

// SetOverrun records by how much the chunk missed its deadline and
// marks the trace bad, so tail sampling always keeps it.
func (t *Trace) SetOverrun(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	// A sub-microsecond overrun would truncate to 0 in the exported
	// record and vanish from the miss budget; any real overrun is at
	// least one exportable microsecond.
	if d < time.Microsecond {
		d = time.Microsecond
	}
	t.mu.Lock()
	t.overrun = d
	t.reasons = appendReason(t.reasons, TraceMissed)
	t.mu.Unlock()
}

// MarkBad flags the trace with a keep-always reason (abort, downgrade,
// requeue, missed, lost, panic...). Duplicate reasons collapse.
func (t *Trace) MarkBad(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reasons = appendReason(t.reasons, reason)
	t.mu.Unlock()
}

func appendReason(rs []string, r string) []string {
	for _, have := range rs {
		if have == r {
			return rs
		}
	}
	return append(rs, r)
}

// StartSpan opens a span parented at the trace root. The returned
// *Span is nil when the trace is nil.
func (t *Trace) StartSpan(category, name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, Category: category, Name: name}
	t.mu.Lock()
	t.nextID++
	sp.ID = t.nextID
	sp.start = t.tracer.nowFn()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// StartSpanAt opens a span whose start is backdated to at — for
// intervals whose category is only known after they began, like a range
// request that turns out to be an edge-cache miss once the response
// headers arrive.
func (t *Trace) StartSpanAt(category, name string, at time.Time) *Span {
	sp := t.StartSpan(category, name)
	if sp != nil {
		sp.t.mu.Lock()
		sp.start = at
		sp.t.mu.Unlock()
	}
	return sp
}

// Event records an instantaneous marker (a zero-duration span).
func (t *Trace) Event(category, name string) {
	sp := t.StartSpan(category, name)
	if sp != nil {
		sp.t.mu.Lock()
		sp.end = sp.start
		sp.t.mu.Unlock()
	}
}

// Finish closes the trace with its terminal verdict and hands it to the
// tracer's tail sampler. Only the first Finish wins; later calls (and
// spans ended after it) are harmless.
func (t *Trace) Finish(verdict string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.verdict = verdict
	t.end = t.tracer.nowFn()
	bad := len(t.reasons) > 0 || verdict != TraceOK
	t.mu.Unlock()
	t.tracer.finish(t, bad)
}

// record snapshots the trace under its lock.
func (t *Trace) record() *TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = t.start
	}
	rec := &TraceRecord{
		TraceID:    fmt.Sprintf("%016x", t.id),
		Session:    t.session,
		Chunk:      t.chunk,
		Level:      t.level,
		Verdict:    t.verdict,
		Reasons:    append([]string(nil), t.reasons...),
		StartUS:    t.start.UnixMicro(),
		DurUS:      end.Sub(t.start).Microseconds(),
		DeadlineUS: t.deadline.Microseconds(),
		OverrunUS:  t.overrun.Microseconds(),
		Spans:      make([]SpanRecord, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		spEnd := sp.end
		if spEnd.IsZero() {
			spEnd = end
		}
		s := sp.start.Sub(t.start).Microseconds()
		d := spEnd.Sub(sp.start).Microseconds()
		if d < 0 {
			d = 0
		}
		rec.Spans = append(rec.Spans, SpanRecord{
			ID:       sp.ID,
			Category: sp.Category,
			Name:     sp.Name,
			Path:     sp.Path,
			StartUS:  s,
			DurUS:    d,
			Num:      copyNum(sp.num),
			Str:      copyStr(sp.str),
		})
	}
	// Deterministic export order: by start time, span ID breaking ties.
	sort.SliceStable(rec.Spans, func(i, j int) bool {
		a, b := rec.Spans[i], rec.Spans[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		return a.ID < b.ID
	})
	return rec
}

func copyNum(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyStr(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Span is one timed interval inside a trace. Mutations go through the
// owning trace's lock so concurrent export is race-free. All methods
// are nil-safe.
type Span struct {
	t        *Trace
	ID       int
	Category string
	Name     string
	Path     string
	start    time.Time
	end      time.Time
	num      map[string]float64
	str      map[string]string
}

// SetPath names the network path the span ran on.
func (sp *Span) SetPath(p string) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	sp.Path = p
	sp.t.mu.Unlock()
}

// SetNum attaches a numeric attribute.
func (sp *Span) SetNum(k string, v float64) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	if sp.num == nil {
		sp.num = make(map[string]float64, 4)
	}
	sp.num[k] = v
	sp.t.mu.Unlock()
}

// SetStr attaches a string attribute.
func (sp *Span) SetStr(k, v string) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	if sp.str == nil {
		sp.str = make(map[string]string, 2)
	}
	sp.str[k] = v
	sp.t.mu.Unlock()
}

// End closes the span. Only the first End wins.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	if sp.end.IsZero() {
		sp.end = sp.t.tracer.nowFn()
	}
	sp.t.mu.Unlock()
}

// TraceRecord is the exported form of one kept trace: one JSONL line.
type TraceRecord struct {
	TraceID    string       `json:"trace_id"`
	Session    int          `json:"session"`
	Chunk      int          `json:"chunk"`
	Level      int          `json:"level"`
	Verdict    string       `json:"verdict"`
	Reasons    []string     `json:"reasons,omitempty"`
	StartUS    int64        `json:"start_us"`    // unix microseconds
	DurUS      int64        `json:"dur_us"`      // root interval length
	DeadlineUS int64        `json:"deadline_us"` // deadline window
	OverrunUS  int64        `json:"overrun_us"`  // missed-by (0 = on time)
	Spans      []SpanRecord `json:"spans"`
}

// SpanRecord is one span inside a TraceRecord. StartUS is relative to
// the trace start; DurUS 0 marks an instantaneous event.
type SpanRecord struct {
	ID       int                `json:"id"`
	Category string             `json:"cat"`
	Name     string             `json:"name"`
	Path     string             `json:"path,omitempty"`
	StartUS  int64              `json:"start_us"`
	DurUS    int64              `json:"dur_us"`
	Num      map[string]float64 `json:"num,omitempty"`
	Str      map[string]string  `json:"str,omitempty"`
}

// WriteJSONL writes every kept trace as one JSON line. Nil-safe.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range tr.Records() {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: trace write: %w", err)
		}
	}
	return bw.Flush()
}

// WriteChrome writes the kept traces in Chrome trace-event JSON, the
// format chrome://tracing and Perfetto load directly. Nil-safe.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	if tr == nil {
		return nil
	}
	return WriteChromeTrace(w, tr.Records())
}

// Export writes the kept traces to files: JSONL to jsonlPath and Chrome
// trace-event JSON to chromePath. An empty path skips its file.
func (tr *Tracer) Export(jsonlPath, chromePath string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{jsonlPath, tr.WriteJSONL}, {chromePath, tr.WriteChrome}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fmt.Errorf("obs: trace: %w", err)
		}
		if err := out.write(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: trace %s: %w", out.path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("obs: trace %s: %w", out.path, err)
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders trace records as a Chrome trace-event file:
// pid = session, tid = chunk, one "X" complete event per span plus one
// for the root interval carrying the verdict and overrun.
func WriteChromeTrace(w io.Writer, recs []*TraceRecord) error {
	events := make([]chromeEvent, 0, len(recs)*8)
	for _, rec := range recs {
		rootArgs := map[string]any{
			"trace_id": rec.TraceID,
			"verdict":  rec.Verdict,
			"level":    rec.Level,
		}
		if rec.OverrunUS > 0 {
			rootArgs["overrun_us"] = rec.OverrunUS
		}
		if len(rec.Reasons) > 0 {
			rootArgs["reasons"] = rec.Reasons
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("chunk %d", rec.Chunk),
			Cat:  CatChunk,
			Ph:   "X",
			TS:   rec.StartUS,
			Dur:  rec.DurUS,
			PID:  rec.Session,
			TID:  rec.Chunk,
			Args: rootArgs,
		})
		for _, sp := range rec.Spans {
			var args map[string]any
			if sp.Path != "" || len(sp.Num) > 0 || len(sp.Str) > 0 {
				args = make(map[string]any, len(sp.Num)+len(sp.Str)+1)
				if sp.Path != "" {
					args["path"] = sp.Path
				}
				for k, v := range sp.Num {
					args[k] = v
				}
				for k, v := range sp.Str {
					args[k] = v
				}
			}
			ph, dur := "X", sp.DurUS
			if dur == 0 {
				ph = "i" // instant event
			}
			events = append(events, chromeEvent{
				Name: sp.Name,
				Cat:  sp.Category,
				Ph:   ph,
				TS:   rec.StartUS + sp.StartUS,
				Dur:  dur,
				PID:  rec.Session,
				TID:  rec.Chunk,
				Args: args,
			})
		}
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadTraceJSONL decodes a JSONL trace file (as written by WriteJSONL).
// Like ReadJournal it tolerates a truncated final line, returning the
// parsed prefix wrapped around ErrTruncatedTail.
func ReadTraceJSONL(r io.Reader) ([]*TraceRecord, error) {
	recs, err := readJSONL[TraceRecord](r, "trace", 16<<20)
	out := make([]*TraceRecord, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	return out, err
}
