// Package audit is the runtime invariant auditor: it watches a run —
// live, through the telemetry event stream and direct hooks — and fails
// loudly afterwards when a correctness invariant the rest of the system
// merely *assumes* was actually broken. The invariants are the ones a
// chaos run is most likely to bend without any test noticing:
//
//   - exactly-once ledger: no session's byte-for-byte verification failed
//     (a duplicate or torn segment delivery under crash/restart);
//   - goroutine hygiene: after the population drains, the process
//     goroutine count returns to its pre-run watermark (plus slack) —
//     the leak check for fetcher supervisors, hedges and chaos timers;
//   - playback monotonicity: every session's delivered chunk indices
//     strictly increase (a replayed or reordered chunk is corruption,
//     not recovery);
//   - abort/downgrade pairing: every doomed-chunk abort journal event is
//     matched by its rendition-downgrade (and no downgrade appears
//     without an abort) — an unpaired half means the cross-layer abort
//     contract broke;
//   - bounded waste: bytes that bought no on-time video — bytes of
//     failed or corrupt attempts, aborted and failed chunks' partials,
//     late chunks' payload and hedge losers — stay a bounded fraction of
//     all bytes moved; unbounded wasted-byte growth is the signature of
//     an abort/hedge feedback loop.
//
// The auditor is deliberately dependency-light (only internal/obs) so
// any layer can wire it: Watch goes on obs.Telemetry.OnEmit, Playback
// hooks a Streamer.OnChunk, CheckTotals takes the aggregated counters,
// and Finish settles the goroutine check and returns the Result.
package audit

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mpdash/internal/obs"
)

// Invariant names, used in Violation.Invariant and journal events.
const (
	InvLedger   = "ledger_exactly_once"
	InvLeak     = "goroutine_leak"
	InvPlayback = "playback_monotone"
	InvPairing  = "abort_pairing"
	InvWaste    = "wasted_byte_growth"
)

// Violation is one observed invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result is the auditor's verdict for one run.
type Result struct {
	// Watermark is the goroutine count recorded by Start; Settled is the
	// count the process settled at inside the settle timeout.
	Watermark int `json:"goroutine_watermark"`
	Settled   int `json:"goroutine_settled"`
	// Events is how many journal events the auditor watched.
	Events int `json:"events_watched"`
	// Violations lists every breach (capped at MaxViolations; Truncated
	// counts the overflow).
	Violations []Violation `json:"violations,omitempty"`
	Truncated  int         `json:"truncated,omitempty"`
}

// OK reports whether the run passed the audit.
func (r *Result) OK() bool { return r != nil && len(r.Violations) == 0 }

// Count returns the total violation count including truncated overflow.
func (r *Result) Count() int {
	if r == nil {
		return 0
	}
	return len(r.Violations) + r.Truncated
}

// Summary renders the verdict as a short human-readable block.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d events watched, goroutines %d → %d (watermark)\n",
		r.Events, r.Settled, r.Watermark)
	if r.OK() {
		b.WriteString("audit: PASS — zero invariant violations\n")
		return b.String()
	}
	fmt.Fprintf(&b, "audit: FAIL — %d invariant violations\n", r.Count())
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, "  ... and %d more\n", r.Truncated)
	}
	return b.String()
}

// MaxViolations caps the retained violation list; further breaches are
// counted, not stored, so a systemic failure cannot balloon the report.
const MaxViolations = 64

// The wasted-byte bound: waste over maxWasteFraction of the bytes moved
// is a violation, once it reaches minWasteBytes (tiny runs are all
// noise).
const (
	maxWasteFraction = 0.5
	minWasteBytes    = 1 << 20
)

// Config tunes the auditor. The zero value is usable.
type Config struct {
	// GoroutineSlack is how many goroutines over the watermark still
	// count as settled (default 8 — timer and netpoll wiggle).
	GoroutineSlack int
	// SettleTimeout bounds how long Finish waits for the goroutine count
	// to recede to the watermark (default 5s).
	SettleTimeout time.Duration
	// Sink receives audit.* journal events (violations as they are
	// detected, the final verdict). Nil = silent.
	Sink obs.Sink
}

func (c Config) withDefaults() Config {
	if c.GoroutineSlack <= 0 {
		c.GoroutineSlack = 8
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 5 * time.Second
	}
	return c
}

// Auditor accumulates run-time observations. All methods are
// goroutine-safe; the zero value is NOT usable — construct with New.
type Auditor struct {
	cfg Config

	mu         sync.Mutex
	watermark  int
	events     int
	violations []Violation
	truncated  int
	// playback tracks each session's last delivered chunk index.
	playback map[int]int
	// openAborts tracks outstanding chunk.abort events per chunk index
	// awaiting their stream.downgrade.
	openAborts map[int]int
	finished   bool
}

// New returns an Auditor with the config defaulted.
func New(cfg Config) *Auditor {
	return &Auditor{
		cfg:        cfg.withDefaults(),
		playback:   make(map[int]int),
		openAborts: make(map[int]int),
	}
}

// Start records the pre-run goroutine watermark. Call it before the
// system under audit spins anything up.
func (a *Auditor) Start() {
	a.mu.Lock()
	a.watermark = runtime.NumGoroutine()
	a.mu.Unlock()
	if a.cfg.Sink != nil {
		a.cfg.Sink.Emit(obs.NewEvent("audit.start").
			WithNum("goroutine_watermark", float64(a.watermark)))
	}
}

// violate records one breach (capped) and journals it. Callers must NOT
// hold a.mu.
func (a *Auditor) violate(inv, format string, args ...any) {
	v := Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)}
	a.mu.Lock()
	if len(a.violations) < MaxViolations {
		a.violations = append(a.violations, v)
	} else {
		a.truncated++
	}
	a.mu.Unlock()
	if a.cfg.Sink != nil {
		a.cfg.Sink.Emit(obs.NewEvent("audit.violation").
			WithStr("invariant", v.Invariant).WithStr("detail", v.Detail))
	}
}

// Watch observes one journal event; wire it to obs.Telemetry.OnEmit.
// It tracks abort/downgrade pairing from the event stream. audit.*
// events are ignored (the auditor journals through the same telemetry
// it watches).
func (a *Auditor) Watch(e obs.Event) {
	if strings.HasPrefix(e.Type, "audit.") {
		return
	}
	a.mu.Lock()
	a.events++
	orphan := false
	switch e.Type {
	case "chunk.abort":
		a.openAborts[e.Chunk]++
	case "stream.downgrade":
		if a.openAborts[e.Chunk] > 0 {
			a.openAborts[e.Chunk]--
		} else {
			orphan = true
		}
	}
	chunk := e.Chunk
	a.mu.Unlock()
	if orphan {
		a.violate(InvPairing, "chunk %d: stream.downgrade without an outstanding chunk.abort", chunk)
	}
}

// Playback returns a per-session hook asserting strictly increasing
// chunk delivery — plug it into (or chain it with) Streamer.OnChunk.
func (a *Auditor) Playback(session int) func(index int, missed bool) {
	return func(index int, _ bool) {
		a.mu.Lock()
		last, seen := a.playback[session]
		bad := seen && index <= last
		if !bad {
			a.playback[session] = index
		}
		a.mu.Unlock()
		if bad {
			a.violate(InvPlayback, "session %d: chunk %d delivered after chunk %d — playback position moved backwards",
				session, index, last)
		}
	}
}

// CheckTotals audits the run's aggregated counters: the exactly-once
// ledger and the wasted-byte bound. Call it with the final report
// numbers before Finish.
func (a *Auditor) CheckTotals(ledgerViolations int, wastedBytes, totalBytes int64) {
	if ledgerViolations > 0 {
		a.violate(InvLedger, "%d sessions failed byte-for-byte verification (duplicate or torn delivery)",
			ledgerViolations)
	}
	if totalBytes > 0 && wastedBytes >= minWasteBytes {
		if frac := float64(wastedBytes) / float64(totalBytes); frac > maxWasteFraction {
			a.violate(InvWaste, "wasted %d of %d bytes (%.0f%% > %.0f%% bound) — waste is growing unbounded",
				wastedBytes, totalBytes, frac*100, maxWasteFraction*100)
		}
	}
}

// Finish settles the goroutine-leak check, sweeps unpaired aborts, and
// returns the Result. Call it after the system under audit has fully
// drained (servers closed, sessions done). Finish is idempotent in
// effect but should be called once.
func (a *Auditor) Finish() *Result {
	// Settle: goroutines retire asynchronously after a drain, so poll up
	// to the timeout for the count to recede under watermark+slack.
	limit := a.watermarkLimit()
	deadline := time.Now().Add(a.cfg.SettleTimeout)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > limit {
		a.violate(InvLeak, "goroutines settled at %d, watermark %d (+%d slack): %s",
			n, a.watermark, a.cfg.GoroutineSlack, leakHint())
	}

	a.mu.Lock()
	var unpaired []int
	for chunk, open := range a.openAborts {
		if open > 0 {
			unpaired = append(unpaired, chunk)
		}
	}
	sort.Ints(unpaired)
	a.mu.Unlock()
	for _, chunk := range unpaired {
		a.violate(InvPairing, "chunk %d: chunk.abort never followed by its stream.downgrade", chunk)
	}

	a.mu.Lock()
	a.finished = true
	res := &Result{
		Watermark:  a.watermark,
		Settled:    n,
		Events:     a.events,
		Violations: append([]Violation(nil), a.violations...),
		Truncated:  a.truncated,
	}
	a.mu.Unlock()
	if a.cfg.Sink != nil {
		a.cfg.Sink.Emit(obs.NewEvent("audit.done").
			WithNum("events", float64(res.Events)).
			WithNum("violations", float64(res.Count())).
			WithNum("goroutines", float64(res.Settled)).
			WithNum("goroutine_watermark", float64(res.Watermark)))
	}
	return res
}

func (a *Auditor) watermarkLimit() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.watermark + a.cfg.GoroutineSlack
}

// leakHintBytes bounds the stack sample attached to a leak violation.
const leakHintBytes = 2048

// leakHint samples the live goroutine stacks (truncated) so a leak
// violation is actionable from the report alone.
func leakHint() string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	s := string(buf[:n])
	if len(s) > leakHintBytes {
		s = s[:leakHintBytes] + "..."
	}
	return "sample stacks:\n" + s
}
