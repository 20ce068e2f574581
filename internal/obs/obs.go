// Package obs is the telemetry subsystem: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms with quantile
// estimation) exposed in Prometheus text format, a ring-buffered
// structured event journal that can stream JSONL to a writer, and HTTP
// exposition (/metrics, /debug/vars, net/http/pprof).
//
// Instrumented components talk to obs through the narrow Sink interface
// and hold nil-safe metric handles, so with telemetry off the hot path
// pays a single nil-check branch and allocates nothing. Everything in
// this package is safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Event is one structured journal entry. The zero values of Chunk and
// Level are meaningful (chunk 0, level 0), so events that are not about
// a chunk carry -1 in both; NewEvent sets that convention.
type Event struct {
	// T is the wall-clock timestamp (stamped by Telemetry.Emit when
	// zero). Simulator-driven events leave T zero and set Sim instead;
	// readers should fall back to Sim when T.IsZero().
	T time.Time `json:"t"`
	// Sim is the virtual-time timestamp of simulator events.
	Sim time.Duration `json:"sim,omitempty"`
	// Type names the event in the dotted taxonomy (see DESIGN.md §8),
	// e.g. "chunk.start", "path.engage", "breaker.state", "hedge.arm".
	Type string `json:"type"`
	// Path names the network path the event concerns, when any.
	Path string `json:"path,omitempty"`
	// Chunk and Level locate the event in the video (-1 = not chunk-scoped).
	Chunk int `json:"chunk"`
	Level int `json:"level"`
	// Num carries the event's numeric payload (throughput estimates,
	// deadline slack, byte counts...), keyed by snake_case field names.
	Num map[string]float64 `json:"num,omitempty"`
	// Str carries the event's string payload (states, origins, errors).
	Str map[string]string `json:"str,omitempty"`
}

// NewEvent returns an event of the given type with the not-chunk-scoped
// convention (Chunk = Level = -1).
func NewEvent(typ string) Event {
	return Event{Type: typ, Chunk: -1, Level: -1}
}

// WithPath sets the event's path name.
func (e Event) WithPath(p string) Event {
	e.Path = p
	return e
}

// WithChunk scopes the event to a chunk (and level, when >= 0 it is
// kept as passed).
func (e Event) WithChunk(chunk, level int) Event {
	e.Chunk, e.Level = chunk, level
	return e
}

// WithNum sets one numeric field, allocating the map on first use.
func (e Event) WithNum(k string, v float64) Event {
	if e.Num == nil {
		e.Num = make(map[string]float64, 4)
	}
	e.Num[k] = v
	return e
}

// WithStr sets one string field, allocating the map on first use.
func (e Event) WithStr(k, v string) Event {
	if e.Str == nil {
		e.Str = make(map[string]string, 2)
	}
	e.Str[k] = v
	return e
}

// Sink receives structured events from instrumented components. A nil
// Sink (or a nil *Telemetry stored in one) is the off switch: callers
// guard emission with a nil check, which is the only cost telemetry adds
// to an uninstrumented hot path.
type Sink interface {
	Emit(Event)
}

// Telemetry bundles the metrics registry and the event journal behind
// one Sink. The zero value is unusable; construct with New.
type Telemetry struct {
	Registry *Registry
	Journal  *Journal
	// Now stamps events whose T is zero; nil means time.Now.
	Now func() time.Time
	// OnEmit, when set, observes every event synchronously after it is
	// journaled — the hook for runtime auditors that watch the stream as
	// it happens rather than replaying the ring afterwards. It runs on
	// the emitting goroutine, so it must be fast and goroutine-safe.
	// Set it before the Telemetry is shared; mutating it mid-flight races.
	OnEmit func(Event)
}

// DefaultJournalCap is the journal ring capacity used by New.
const DefaultJournalCap = 4096

// New returns a Telemetry with a fresh registry and a journal of
// DefaultJournalCap events.
func New() *Telemetry {
	t := &Telemetry{Registry: NewRegistry(), Journal: NewJournal(DefaultJournalCap)}
	t.Registry.CounterFunc("obs_journal_dropped_total",
		"Events dropped from the JSONL journal stream after a write error.",
		nil, func() float64 { return float64(t.Journal.Dropped()) })
	return t
}

// Open is how a command brings telemetry up from its -journal and
// -metrics-addr flags: a New Telemetry whose journal streams to
// journalPath ("-" = stderr, "" = ring only) and whose endpoint serves
// on metricsAddr ("" = off; logf, when not nil, is told where). The
// returned func flushes the journal (a failure goes to stderr), then
// stops the endpoint and closes the file.
func Open(journalPath, metricsAddr string, logf func(format string, a ...any)) (*Telemetry, func(), error) {
	t := New()
	var closers []io.Closer
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}
	if journalPath == "-" {
		t.Journal.StreamTo(os.Stderr)
	} else if journalPath != "" {
		jf, err := os.Create(journalPath)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, jf)
		t.Journal.StreamTo(jf)
	}
	if metricsAddr != "" {
		ms, err := t.Serve(metricsAddr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, ms)
		if logf != nil {
			logf("telemetry: http://%s/metrics\n", ms.Addr())
		}
	}
	return t, func() {
		if err := t.Journal.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		closeAll()
	}, nil
}

// Emit implements Sink: the event is timestamped (when T is zero and the
// event is not simulator-timed) and appended to the journal. Nil-safe.
func (t *Telemetry) Emit(e Event) {
	if t == nil || t.Journal == nil {
		return
	}
	if e.T.IsZero() && e.Sim == 0 {
		if t.Now != nil {
			e.T = t.Now()
		} else {
			e.T = time.Now()
		}
	}
	t.Journal.Append(e)
	if t.OnEmit != nil {
		t.OnEmit(e)
	}
}
