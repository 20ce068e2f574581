package netmp

// Span-trace propagation through the dual-socket fetcher. The Streamer
// opens one obs.Trace per chunk and installs it on the fetcher; the
// fetch workers, the supervisor's redial/backoff machinery, the hedge
// racer and the doom test all attach spans to whatever trace is
// current. The slot is an atomic pointer shared with both pathConns
// (which have no back-pointer to the fetcher), so reading it from any
// goroutine costs one atomic load and zero allocations — with tracing
// off the pointer is nil and every span call on it no-ops, preserving
// the hot path's zero-alloc contract exactly like the nil-safe
// telemetry handles in telemetry.go.

import (
	"sync/atomic"

	"mpdash/internal/obs"
)

// traceRef is the shared slot naming the in-flight chunk's trace.
// Exactly one chunk is in flight per fetcher, so one slot suffices.
type traceRef struct {
	p atomic.Pointer[obs.Trace]
}

// load returns the current trace (nil = tracing off or no chunk in
// flight). Nil-receiver-safe for the hedge's throwaway pathConn.
func (tr *traceRef) load() *obs.Trace {
	if tr == nil {
		return nil
	}
	return tr.p.Load()
}

// SetTrace installs (or, with nil, clears) the trace the next fetch's
// spans attach to. The Streamer calls it around each chunk; direct
// FetchChunk users may install their own trace the same way.
func (f *Fetcher) SetTrace(t *obs.Trace) {
	f.tref.p.Store(t)
}

// curTrace returns the in-flight chunk's trace (nil = off).
func (f *Fetcher) curTrace() *obs.Trace {
	return f.tref.p.Load()
}
