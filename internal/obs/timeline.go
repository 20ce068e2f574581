package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RenderTimeline writes a human-readable per-chunk decision timeline of
// a journal: chunk spans (request → first byte → complete vs. deadline)
// as headers, with every decision event — subflow engage/stand-down
// with its driving throughput estimate, scheduler toggles, hedges,
// redials, breaker and path state transitions — indented under the
// chunk it belongs to. Events that are not chunk-scoped print at top
// level. Timestamps are relative to the first event (wall or sim time,
// whichever the journal carries).
func RenderTimeline(w io.Writer, events []Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "journal: no events")
		return
	}
	at := timeBase(events)
	chunks := map[int]bool{}
	for _, e := range events {
		if e.Chunk >= 0 {
			chunks[e.Chunk] = true
		}
	}
	fmt.Fprintf(w, "journal: %d events, %d chunks\n", len(events), len(chunks))
	for _, e := range events {
		indent := ""
		if e.Chunk >= 0 && e.Type != "chunk.start" && e.Type != "chunk.done" && e.Type != "chunk.fail" {
			indent = "  "
		}
		fmt.Fprintf(w, "[%+9.3fs] %s%s\n", at(e).Seconds(), indent, describe(e))
	}
}

// timeBase returns a function mapping each event to its offset from the
// journal's first timestamp, preferring wall time and falling back to
// sim time.
func timeBase(events []Event) func(Event) time.Duration {
	var t0 time.Time
	var s0 time.Duration
	haveT, haveS := false, false
	for _, e := range events {
		if !e.T.IsZero() && (!haveT || e.T.Before(t0)) {
			t0, haveT = e.T, true
		}
		if e.Sim != 0 && (!haveS || e.Sim < s0) {
			s0, haveS = e.Sim, true
		}
	}
	return func(e Event) time.Duration {
		if !e.T.IsZero() && haveT {
			return e.T.Sub(t0)
		}
		if haveS {
			return e.Sim - s0
		}
		return e.Sim
	}
}

// describe renders one event as a single line.
func describe(e Event) string {
	loc := ""
	if e.Chunk >= 0 {
		loc = fmt.Sprintf("chunk %d", e.Chunk)
		if e.Level >= 0 {
			loc += fmt.Sprintf(" level %d", e.Level)
		}
	}
	switch e.Type {
	case "chunk.start":
		return fmt.Sprintf("%s: start size=%s deadline=%.2fs segments=%.0f",
			loc, fmtBytes(e.Num["size"]), e.Num["deadline_s"], e.Num["segments"])
	case "chunk.firstbyte":
		return fmt.Sprintf("first byte after %.3fs", e.Num["elapsed_s"])
	case "chunk.done":
		verdict := "met"
		if e.Num["slack_s"] < 0 {
			verdict = fmt.Sprintf("MISSED by %.2fs", -e.Num["slack_s"])
		}
		return fmt.Sprintf("%s: done in %.2fs (%s, slack %.2fs) primary=%s secondary=%s",
			loc, e.Num["duration_s"], verdict, e.Num["slack_s"],
			fmtBytes(e.Num["primary_bytes"]), fmtBytes(e.Num["secondary_bytes"]))
	case "chunk.fail":
		return fmt.Sprintf("%s: FAILED: %s", loc, e.Str["error"])
	case "chunk.abort":
		pre := ""
		if e.Str["prearmed"] == "true" {
			pre = " [board pre-armed]"
		}
		return fmt.Sprintf("%s: ABORT doomed%s: est=%s×%.0f paths, %s left, best finish %.2fs > window %.2fs",
			loc, pre, fmtRate(e.Num["rate_bps"]), e.Num["paths"],
			fmtBytes(e.Num["remaining_bytes"]), e.Num["best_finish_s"], e.Num["window_s"])
	case "path.engage":
		reason := e.Str["reason"]
		if reason == "" {
			reason = "pressure"
		}
		return fmt.Sprintf("%s ENGAGE (%s): est=%s remaining=%s window=%.2fs",
			e.Path, reason, fmtRate(e.Num["rate_bps"]), fmtBytes(e.Num["remaining_bytes"]), e.Num["window_s"])
	case "path.standdown":
		return fmt.Sprintf("%s stand down: est=%s remaining=%s window=%.2fs",
			e.Path, fmtRate(e.Num["rate_bps"]), fmtBytes(e.Num["remaining_bytes"]), e.Num["window_s"])
	case "path.state":
		return fmt.Sprintf("%s path %s", e.Path, e.Str["state"])
	case "path.redial":
		out := fmt.Sprintf("%s redial→%s", e.Path, e.Str["origin"])
		if e.Str["ok"] == "false" {
			out += " FAILED"
		}
		return out
	case "breaker.state":
		return fmt.Sprintf("%s breaker %s: %s→%s", e.Path, e.Str["origin"], e.Str["from"], e.Str["to"])
	case "hedge.arm":
		return fmt.Sprintf("%s hedge armed→%s after %.3fs", e.Path, e.Str["origin"], e.Num["delay_s"])
	case "hedge.win":
		return fmt.Sprintf("%s hedge WON", e.Path)
	case "hedge.lose":
		return fmt.Sprintf("%s hedge lost", e.Path)
	case "hedge.cancel":
		return fmt.Sprintf("%s hedge loser cancelled (wasted %s)", e.Path, fmtBytes(e.Num["wasted_bytes"]))
	case "fetch.fault":
		return fmt.Sprintf("%s fault: %s", e.Path, e.Str["error"])
	case "sched.toggle":
		state := "OFF"
		if e.Str["on"] == "true" {
			state = "ON"
		}
		return fmt.Sprintf("sched: %s %s (est=%s remaining=%s slack=%.2fs)",
			e.Path, state, fmtRate(e.Num["estimate_bps"]), fmtBytes(e.Num["remaining_bytes"]), e.Num["slack_s"])
	case "sched.enable":
		return fmt.Sprintf("sched: govern %s over %.2fs", fmtBytes(e.Num["size"]), e.Num["window_s"])
	case "sched.disable":
		return "sched: released"
	case "sched.miss":
		return "sched: DEADLINE MISS — all paths on"
	case "adapter.extend", "stream.extend":
		return fmt.Sprintf("deadline extended +%.2fs (buffer %.2fs > Φ %.2fs)",
			e.Num["extension_s"], e.Num["buffer_s"], e.Num["phi_s"])
	case "adapter.skip":
		return fmt.Sprintf("low buffer: MP-DASH off (buffer %.2fs < Ω %.2fs)",
			e.Num["buffer_s"], e.Num["omega_s"])
	case "adapter.govern":
		return fmt.Sprintf("governed: deadline %.2fs", e.Num["deadline_s"])
	case "stream.stall":
		return fmt.Sprintf("STALL %.2fs", e.Num["stall_s"])
	case "stream.refetch":
		return "retry budget blown: lifeline refetch at lowest level"
	case "stream.lost":
		return "chunk LOST (lifeline failed too)"
	case "stream.downgrade":
		return fmt.Sprintf("DOWNGRADE level %d→%.0f (est=%s, %.2fs left)",
			e.Level, e.Num["to_level"], fmtRate(e.Num["rate_bps"]), e.Num["window_s"])
	case "cache.hit":
		return fmt.Sprintf("cache HIT %s", e.Str["video"])
	case "cache.miss":
		return fmt.Sprintf("cache MISS %s: origin fill", e.Str["video"])
	case "cache.collapse":
		return fmt.Sprintf("cache miss COLLAPSED %s: waiting on the in-flight fill", e.Str["video"])
	case "cache.evict":
		return fmt.Sprintf("cache evict %s", e.Str["video"])
	case "board.seed":
		return fmt.Sprintf("board seed %s: est=%s", e.Str["key"], fmtRate(e.Num["rate_bps"]))
	case "board.drop":
		return fmt.Sprintf("board DROP %s: observed %s (epoch %.0f)",
			e.Str["key"], fmtRate(e.Num["rate_bps"]), e.Num["epoch"])
	case "swarm.capacity.drop":
		return fmt.Sprintf("tier capacity drop at %.1fs: wifi ×%g lte ×%g (%.0f origins)",
			e.Num["at_s"], e.Num["wifi_factor"], e.Num["lte_factor"], e.Num["origins"])
	case "chaos.capacity.drop":
		return fmt.Sprintf("%s capacity DROP: wifi ×%g lte ×%g (%.0f origins)",
			chaosMarker, e.Num["wifi_factor"], e.Num["lte_factor"], e.Num["origins"])
	case "chaos.capacity.restore":
		return fmt.Sprintf("%s capacity RESTORE (%.0f origins back to original rates)",
			chaosMarker, e.Num["origins"])
	case "chaos.fault.surge":
		return fmt.Sprintf("%s fault SURGE (%.0f origins)", chaosMarker, e.Num["origins"])
	case "chaos.fault.clear":
		return fmt.Sprintf("%s fault CLEAR (%.0f origins)", chaosMarker, e.Num["origins"])
	case "chaos.path.blackout":
		return fmt.Sprintf("%s path BLACKOUT %s (%.0f origins down)",
			chaosMarker, e.Str["path"], e.Num["origins"])
	case "chaos.path.heal":
		return fmt.Sprintf("%s path HEAL %s (%.0f origins back)",
			chaosMarker, e.Str["path"], e.Num["origins"])
	case "chaos.origin.crash":
		return fmt.Sprintf("%s origin CRASH %s#%.0f (%.0f origins down)",
			chaosMarker, e.Str["path"], e.Num["origin"], e.Num["origins"])
	case "chaos.origin.restart":
		return fmt.Sprintf("%s origin RESTART %s#%.0f (%.0f origins back)",
			chaosMarker, e.Str["path"], e.Num["origin"], e.Num["origins"])
	case "session.panic":
		return fmt.Sprintf("session %.0f PANIC: %s", e.Num["session"], firstLine(e.Str["panic"]))
	case "audit.start":
		return fmt.Sprintf("audit start (goroutine watermark %.0f)", e.Num["goroutine_watermark"])
	case "audit.violation":
		return fmt.Sprintf("AUDIT VIOLATION [%s]: %s", e.Str["invariant"], firstLine(e.Str["detail"]))
	case "audit.done":
		verdict := "PASS"
		if e.Num["violations"] > 0 {
			verdict = "FAIL"
		}
		return fmt.Sprintf("audit %s: %.0f violations, %.0f events, goroutines %.0f (watermark %.0f)",
			verdict, e.Num["violations"], e.Num["events"], e.Num["goroutines"], e.Num["goroutine_watermark"])
	default:
		return genericLine(e, loc)
	}
}

// chaosMarker flags executed chaos-timeline events so they stand out as
// timeline markers among the per-chunk noise.
const chaosMarker = "== CHAOS =="

// firstLine truncates multi-line payloads (panic values, stack hints)
// to their first line for the one-line timeline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// genericLine renders unknown event types as type + sorted key=value.
func genericLine(e Event, loc string) string {
	var b strings.Builder
	b.WriteString(e.Type)
	if e.Path != "" {
		fmt.Fprintf(&b, " path=%s", e.Path)
	}
	if loc != "" {
		fmt.Fprintf(&b, " (%s)", loc)
	}
	keys := make([]string, 0, len(e.Num))
	for k := range e.Num {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%g", k, e.Num[k])
	}
	skeys := make([]string, 0, len(e.Str))
	for k := range e.Str {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	for _, k := range skeys {
		fmt.Fprintf(&b, " %s=%s", k, e.Str[k])
	}
	return b.String()
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.1fMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1fKB", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func fmtRate(bps float64) string {
	switch {
	case bps >= 1e6:
		return fmt.Sprintf("%.2fMbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1fkbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0fbps", bps)
	}
}
