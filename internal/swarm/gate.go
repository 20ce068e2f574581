package swarm

// A run's pass bar. A scenario states it in its "gates" stanza;
// mpdash-swarm checks the stanza against the finished run's report,
// prints one row per checked quantity, and exits non-zero when a row
// fails.

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Gates is a scenario's pass bar. A bound the stanza omits is not
// checked; none has a default. Declaring the stanza also turns on the
// invariant rows: every session accounted for, none failed or timed
// out, and traffic moved.
type Gates struct {
	// MaxMissRate bounds the population deadline-miss rate.
	MaxMissRate *float64 `json:"max_miss_rate,omitempty"`
	// MaxMTTRP95S bounds the p95 chaos recovery time in seconds. The
	// report must carry an executed chaos timeline whose every event
	// recovered.
	MaxMTTRP95S *float64 `json:"max_mttr_p95_s,omitempty"`
	// MinOffload and MinHitRate are floors on the edge-cache tier's
	// origin-offload ratio and hit rate. Either needs a run with a cache
	// tier, and turns on the cache_fill_errors = 0 row.
	MinOffload *float64 `json:"min_offload,omitempty"`
	MinHitRate *float64 `json:"min_hit_rate,omitempty"`
	// MinChunksPerS is a floor on chunks landed per wall second across
	// the population; a report without a measured wall fails it.
	MinChunksPerS *float64 `json:"min_chunks_per_s,omitempty"`
}

// validate rejects a bound no run could meet or that means nothing: a
// negative one, or a share outside [0, 1].
func (g *Gates) validate() error {
	for _, b := range []struct {
		name  string
		v     *float64
		share bool
	}{
		{"max_miss_rate", g.MaxMissRate, true},
		{"max_mttr_p95_s", g.MaxMTTRP95S, false},
		{"min_offload", g.MinOffload, true},
		{"min_hit_rate", g.MinHitRate, true},
		{"min_chunks_per_s", g.MinChunksPerS, false},
	} {
		if b.v == nil {
			continue
		}
		if *b.v < 0 || (b.share && *b.v > 1) {
			return fmt.Errorf("swarm: gates: %s %g (want >= 0, and <= 1 for a share)", b.name, *b.v)
		}
	}
	return nil
}

// Row verdicts.
const (
	verdictOK   = "ok"
	verdictFail = "FAIL"
	verdictInfo = "info"
)

// GateRow is one checked (or, with verdictInfo, reported) quantity.
type GateRow struct {
	Metric  string
	Value   float64
	Limit   string // the bound that applied, e.g. "≤ 0.1"
	Verdict string
	Note    string
}

// rowBuilder collects rows and whether every one passed.
type rowBuilder struct {
	rows []GateRow
	ok   bool
}

func (b *rowBuilder) check(metric string, value float64, limit string, pass bool, note string) {
	b.add(GateRow{Metric: metric, Value: value, Limit: limit, Verdict: verdictIf(pass), Note: note})
}

func (b *rowBuilder) add(r GateRow) {
	if r.Verdict == verdictFail {
		b.ok = false
	}
	b.rows = append(b.rows, r)
}

func verdictIf(pass bool) string {
	if pass {
		return verdictOK
	}
	return verdictFail
}

// Judge checks the report against a pass bar. Every run is held to
// zero ledger violations, zero panics and, when audited, zero audit
// violations; g (nil = no stanza) adds the invariant rows and each
// bound it states.
func (r *Report) Judge(g *Gates) ([]GateRow, bool) {
	b := rowBuilder{ok: true}
	b.check("ledger_violations", float64(r.LedgerViolations), "= 0",
		r.LedgerViolations == 0, "byte-for-byte verification")
	b.check("panicked", float64(r.Panicked), "= 0", r.Panicked == 0, "")
	if r.Audit != nil {
		b.check("audit_violations", float64(r.Audit.Count()), "= 0",
			r.Audit.Count() == 0, "runtime invariant auditor")
	}
	if g == nil {
		return b.rows, b.ok
	}
	accounted := r.Completed + r.Failed + r.TimedOut + r.Panicked
	b.check("sessions_accounted", float64(accounted), fmt.Sprintf("= %d", r.Sessions),
		accounted == r.Sessions, "completed+failed+timed_out+panicked")
	b.check("failed", float64(r.Failed), "= 0", r.Failed == 0, "")
	b.check("timed_out", float64(r.TimedOut), "= 0", r.TimedOut == 0, "")
	b.check("chunks", float64(r.Chunks), "> 0", r.Chunks > 0, "the run must move traffic")
	b.add(GateRow{Metric: "cellular_byte_share", Value: r.CellularByteShare, Verdict: verdictInfo})
	if v := g.MaxMissRate; v != nil {
		b.check("deadline_miss_rate", r.DeadlineMissRate, fmt.Sprintf("≤ %g", *v),
			r.DeadlineMissRate <= *v, "")
	}
	if v := g.MinChunksPerS; v != nil {
		thr := 0.0
		if r.WallS > 0 {
			thr = float64(r.Chunks) / r.WallS
		}
		b.check("chunks_per_s", thr, fmt.Sprintf("≥ %g", *v), thr >= *v,
			"chunks landed per wall second across the population")
	}
	if v := g.MaxMTTRP95S; v != nil {
		recovered := 0
		for _, c := range r.Chaos {
			if c.Recovered {
				recovered++
			}
		}
		b.check("chaos_events", float64(len(r.Chaos)), "≥ 1", len(r.Chaos) >= 1,
			"an MTTR bound needs an executed chaos timeline")
		b.check("chaos_recovered", float64(recovered), fmt.Sprintf("= %d", len(r.Chaos)),
			len(r.Chaos) >= 1 && recovered == len(r.Chaos), "every chaos event must recover")
		if r.MTTR == nil {
			b.check("mttr_p95_s", 0, fmt.Sprintf("≤ %g", *v), false, "report carries no MTTR quantiles")
		} else {
			b.check("mttr_p95_s", r.MTTR.P95, fmt.Sprintf("≤ %g", *v), r.MTTR.P95 <= *v,
				"time to rolling miss rate back under threshold")
		}
	}
	if g.MinOffload != nil || g.MinHitRate != nil {
		c := r.Cache
		if c == nil {
			b.check("cache", 0, "present", false, "a cache bound needs a run with an edge-cache tier")
			return b.rows, b.ok
		}
		if v := g.MinOffload; v != nil {
			b.check("cache_offload_ratio", c.OffloadRatio, fmt.Sprintf("≥ %g", *v),
				c.OffloadRatio >= *v, "payload share the origins never saw")
		}
		if v := g.MinHitRate; v != nil {
			b.check("cache_hit_rate", c.HitRate, fmt.Sprintf("≥ %g", *v),
				c.HitRate >= *v, "collapsed waiters count as misses")
		}
		b.check("cache_fill_errors", float64(c.FillErrors), "= 0", c.FillErrors == 0,
			"origin fills must not fail")
		b.add(GateRow{Metric: "cache_collapsed", Value: float64(c.Collapsed), Verdict: verdictInfo,
			Note: "misses that joined an in-flight fill"})
	}
	return b.rows, b.ok
}

// WriteGateRows writes the rows as an aligned table, then a one-line
// verdict count. With failuresOnly, only FAIL rows are listed, and the
// table is left out when none failed.
func WriteGateRows(w io.Writer, rows []GateRow, failuresOnly bool) error {
	var shown []GateRow
	var ok, fail, info int
	for _, r := range rows {
		switch r.Verdict {
		case verdictFail:
			fail++
		case verdictInfo:
			info++
		default:
			ok++
		}
		if !failuresOnly || r.Verdict == verdictFail {
			shown = append(shown, r)
		}
	}
	if len(shown) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "METRIC\tVALUE\tLIMIT\tVERDICT\tNOTE")
		for _, r := range shown {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\t%s\n",
				r.Metric, r.Value, r.Limit, r.Verdict, r.Note)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	parts := []string{fmt.Sprintf("%d ok", ok)}
	if fail > 0 {
		parts = append(parts, fmt.Sprintf("%d FAILED", fail))
	}
	if info > 0 {
		parts = append(parts, fmt.Sprintf("%d info", info))
	}
	_, err := fmt.Fprintf(w, "gates: %s\n", strings.Join(parts, ", "))
	return err
}
