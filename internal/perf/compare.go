package perf

// Comparison: diff a fresh SuiteResult against the checked-in baseline
// and decide pass/fail per row. The policy (documented in DESIGN.md §11):
//
//   - allocs/op and B/op may grow by countTol (15%). A baseline of
//     exactly zero is a contract, not a measurement: any fresh
//     allocation on a zero-alloc path fails.
//   - Domain metrics follow their own recorded gate: exact metrics must
//     be bit-identical, max/min metrics use their recorded Abs slack,
//     info metrics are reported but never fail.
//   - A bench or gated metric present in the baseline but missing from
//     the fresh run fails (silent coverage loss); a new bench or metric
//     absent from the baseline is informational until `-update`.

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// countTol is the relative growth allowed on a non-zero allocs/op or
// B/op baseline.
const countTol = 0.15

// Diff verdicts.
const (
	VerdictOK   = "ok"
	VerdictFail = "FAIL"
	VerdictInfo = "info"
	VerdictNew  = "new"
)

// DiffRow is one compared quantity.
type DiffRow struct {
	Bench   string
	Metric  string
	Base    float64
	Fresh   float64
	Limit   string // human-readable bound that applied
	Verdict string
	Note    string
}

// Delta returns the relative change against the baseline, or 0 when the
// baseline is zero.
func (r DiffRow) Delta() float64 {
	if r.Base == 0 {
		return 0
	}
	return (r.Fresh - r.Base) / r.Base
}

// CompareSuites diffs fresh against base (same suite) and reports rows
// plus overall pass/fail.
func CompareSuites(base, fresh *SuiteResult) ([]DiffRow, bool) {
	var rows []DiffRow
	ok := true
	fail := func(r DiffRow) {
		r.Verdict = VerdictFail
		rows = append(rows, r)
		ok = false
	}
	pass := func(r DiffRow, verdict string) {
		r.Verdict = verdict
		rows = append(rows, r)
	}

	for _, bb := range base.Benches {
		fb := fresh.bench(bb.Name)
		if fb == nil {
			fail(DiffRow{Bench: bb.Name, Metric: "(bench)", Note: "missing from fresh run"})
			continue
		}
		compareCount(bb.Name, "allocs/op", bb.AllocsOp, fb.AllocsOp, fail, pass)
		compareCount(bb.Name, "B/op", bb.BOp, fb.BOp, fail, pass)

		// Domain metrics, per their recorded gate.
		for _, bm := range bb.Metrics {
			fm := fb.metric(bm.Name)
			r := DiffRow{Bench: bb.Name, Metric: bm.Name, Base: bm.Value}
			if fm == nil {
				if bm.Gate == GateInfo {
					continue
				}
				r.Note = "missing from fresh run"
				fail(r)
				continue
			}
			r.Fresh = fm.Value
			switch bm.Gate {
			case GateExact:
				r.Limit = fmt.Sprintf("= %.10g", bm.Value)
				if fm.Value != bm.Value {
					fail(r)
				} else {
					pass(r, VerdictOK)
				}
			case GateMax:
				limit := bm.Value + bm.Abs
				r.Limit = fmt.Sprintf("≤ %.5g", limit)
				if fm.Value > limit {
					fail(r)
				} else {
					pass(r, VerdictOK)
				}
			case GateMin:
				limit := bm.Value - bm.Abs
				r.Limit = fmt.Sprintf("≥ %.5g", limit)
				if fm.Value < limit {
					fail(r)
				} else {
					pass(r, VerdictOK)
				}
			case GateInfo:
				pass(r, VerdictInfo)
			default:
				r.Note = fmt.Sprintf("unknown gate %q in baseline", bm.Gate)
				fail(r)
			}
		}
		// Fresh metrics the baseline has never seen.
		for _, fm := range fb.Metrics {
			if bb.metric(fm.Name) == nil {
				pass(DiffRow{Bench: bb.Name, Metric: fm.Name, Fresh: fm.Value,
					Note: "not in baseline (run -update to adopt)"}, VerdictNew)
			}
		}
	}
	// Fresh benches the baseline has never seen.
	for _, fb := range fresh.Benches {
		if base.bench(fb.Name) == nil {
			pass(DiffRow{Bench: fb.Name, Metric: "(bench)",
				Note: "not in baseline (run -update to adopt)"}, VerdictNew)
		}
	}
	return rows, ok
}

// compareCount gates an allocation count (allocs/op or B/op): relative
// tolerance, and the zero-baseline contract.
func compareCount(bench, name string, base, fresh *float64,
	fail func(DiffRow), pass func(DiffRow, string)) {
	if base == nil || fresh == nil {
		return
	}
	r := DiffRow{Bench: bench, Metric: name, Base: *base, Fresh: *fresh}
	if *base == 0 {
		r.Limit = "= 0"
		if *fresh != 0 {
			r.Note = "zero-alloc contract broken"
			fail(r)
			return
		}
		pass(r, VerdictOK)
		return
	}
	limit := *base * (1 + countTol)
	r.Limit = fmt.Sprintf("≤ %.5g", limit)
	if *fresh > limit {
		fail(r)
		return
	}
	pass(r, VerdictOK)
}

// RenderTable writes the diff as an aligned human-readable table. When
// failuresOnly is set, ok rows are elided (info/new/FAIL stay).
func RenderTable(w io.Writer, rows []DiffRow, failuresOnly bool) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCH\tMETRIC\tBASE\tFRESH\tΔ\tLIMIT\tVERDICT\tNOTE")
	shown := 0
	for _, r := range rows {
		if failuresOnly && r.Verdict == VerdictOK {
			continue
		}
		shown++
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Bench, r.Metric, formatNum(r.Base), formatNum(r.Fresh),
			formatDelta(r), r.Limit, r.Verdict, r.Note)
	}
	if shown == 0 {
		fmt.Fprintln(tw, "(all rows ok)\t\t\t\t\t\t\t")
	}
	return tw.Flush()
}

func formatNum(v float64) string {
	if v == 0 {
		return "0"
	}
	s := fmt.Sprintf("%.4g", v)
	return s
}

func formatDelta(r DiffRow) string {
	if r.Base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*r.Delta())
}

// Summarize counts verdicts for the one-line footer.
func Summarize(rows []DiffRow) string {
	var ok, fail, info, nw int
	for _, r := range rows {
		switch r.Verdict {
		case VerdictFail:
			fail++
		case VerdictInfo:
			info++
		case VerdictNew:
			nw++
		default:
			ok++
		}
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("%d ok", ok))
	if fail > 0 {
		parts = append(parts, fmt.Sprintf("%d FAILED", fail))
	}
	if info > 0 {
		parts = append(parts, fmt.Sprintf("%d info", info))
	}
	if nw > 0 {
		parts = append(parts, fmt.Sprintf("%d new", nw))
	}
	return strings.Join(parts, ", ")
}
