package perf

import (
	"strings"
	"testing"
)

func findRow(rows []DiffRow, bench, metric string) *DiffRow {
	for i := range rows {
		if rows[i].Bench == bench && rows[i].Metric == metric {
			return &rows[i]
		}
	}
	return nil
}

func TestRenderTableAndSummarize(t *testing.T) {
	rows := []DiffRow{
		{Bench: "a", Metric: "allocs/op", Base: 100, Fresh: 130, Limit: "≤ 115", Verdict: VerdictFail},
		{Bench: "a", Metric: "B/op", Base: 0, Fresh: 0, Limit: "= 0", Verdict: VerdictOK},
		{Bench: "a", Metric: "share", Fresh: 0.2, Verdict: VerdictInfo},
	}
	var sb strings.Builder
	if err := RenderTable(&sb, rows, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"BENCH", "allocs/op", "FAIL", "+30.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var fb strings.Builder
	if err := RenderTable(&fb, rows, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fb.String(), "B/op") {
		t.Error("failures-only table shows ok rows")
	}
	sum := Summarize(rows)
	if !strings.Contains(sum, "1 ok") || !strings.Contains(sum, "1 FAILED") || !strings.Contains(sum, "1 info") {
		t.Errorf("summary %q", sum)
	}
}
