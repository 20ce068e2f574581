package perf

// The gate's rows: one DiffRow per compared quantity, rendered as an
// aligned table with a one-line verdict count.

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Diff verdicts.
const (
	VerdictOK   = "ok"
	VerdictFail = "FAIL"
	VerdictInfo = "info"
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

// RenderTable writes the rows as an aligned human-readable table. When
// failuresOnly is set, ok rows are elided (info and FAIL stay).
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
	var ok, fail, info int
	for _, r := range rows {
		switch r.Verdict {
		case VerdictFail:
			fail++
		case VerdictInfo:
			info++
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
	return strings.Join(parts, ", ")
}
