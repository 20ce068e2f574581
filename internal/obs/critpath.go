package obs

import (
	"fmt"
	"io"
	"sort"

	"mpdash/internal/stats"
)

// The critical-path walker answers "where did the overrun go?" for a
// missed chunk. The model: the trace's root interval [0, dur) is
// covered instant-by-instant by the most specific activity running at
// that instant — among the spans active at time t, the one that started
// latest (ties broken by span ID) wins; instants no span covers belong
// to the root category (CatChunk: queueing/slack the instrumentation
// did not break down). That yields a per-category wall-time partition
// of the whole chunk; scaling each category's share by overrun/dur
// attributes the deadline overrun, and the attributions sum to the
// overrun exactly by construction.

// SpanAttribution is one category's share of a missed chunk's overrun.
type SpanAttribution struct {
	Category  string  `json:"category"`
	BusyUS    float64 `json:"busy_us"`    // wall time covered in the trace
	OverrunUS float64 `json:"overrun_us"` // share of the deadline overrun
}

// CriticalPath partitions one trace's root interval across span
// categories and scales the partition to the recorded overrun. The
// returned attributions are sorted by descending overrun share and sum
// to rec.OverrunUS (empty when the trace has no overrun or no
// duration).
func CriticalPath(rec *TraceRecord) []SpanAttribution {
	if rec == nil || rec.OverrunUS <= 0 || rec.DurUS <= 0 {
		return nil
	}
	busy := coverByCategory(rec)
	out := make([]SpanAttribution, 0, len(busy))
	scale := float64(rec.OverrunUS) / float64(rec.DurUS)
	for cat, us := range busy {
		out = append(out, SpanAttribution{
			Category:  cat,
			BusyUS:    us,
			OverrunUS: us * scale,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].OverrunUS != out[j].OverrunUS {
			return out[i].OverrunUS > out[j].OverrunUS
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// coverByCategory walks the root interval boundary by boundary and
// charges each elementary interval to its deepest active span.
func coverByCategory(rec *TraceRecord) map[string]float64 {
	total := rec.DurUS
	// Collect boundary points, clamped to the root interval. Zero-dur
	// spans (instant events) do not cover time.
	bounds := make([]int64, 0, 2*len(rec.Spans)+2)
	bounds = append(bounds, 0, total)
	type iv struct {
		s, e int64
		id   int
		cat  string
	}
	ivs := make([]iv, 0, len(rec.Spans))
	for _, sp := range rec.Spans {
		if sp.DurUS <= 0 {
			continue
		}
		s, e := sp.StartUS, sp.StartUS+sp.DurUS
		if s < 0 {
			s = 0
		}
		if e > total {
			e = total
		}
		if e <= s {
			continue
		}
		ivs = append(ivs, iv{s: s, e: e, id: sp.ID, cat: sp.Category})
		bounds = append(bounds, s, e)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	busy := make(map[string]float64, 8)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if b <= a {
			continue
		}
		// Deepest active span: latest start wins, span ID breaks ties
		// (a later-started span is the more specific current activity).
		cat := CatChunk
		bestStart, bestID := int64(-1), -1
		for _, v := range ivs {
			if v.s <= a && v.e >= b {
				if v.s > bestStart || (v.s == bestStart && v.id > bestID) {
					bestStart, bestID, cat = v.s, v.id, v.cat
				}
			}
		}
		busy[cat] += float64(b - a)
	}
	return busy
}

// CategoryShare aggregates one category across every missed chunk.
type CategoryShare struct {
	Category  string  `json:"category"`
	OverrunUS float64 `json:"overrun_us"` // total overrun attributed
	Share     float64 `json:"share"`      // fraction of the population overrun
	P50US     float64 `json:"p50_us"`     // per-missed-chunk contribution quantiles
	P95US     float64 `json:"p95_us"`
}

// MissBudget is the population-level deadline-miss attribution: how the
// total overrun across every missed chunk splits across span
// categories.
type MissBudget struct {
	Missed         int             `json:"missed"`
	TotalOverrunUS float64         `json:"total_overrun_us"`
	Categories     []CategoryShare `json:"categories"`
}

// BuildMissBudget runs the critical-path walker over every missed trace
// and aggregates per-category overrun attribution. Traces without an
// overrun are skipped.
func BuildMissBudget(recs []*TraceRecord) MissBudget {
	var mb MissBudget
	// Per-trace contributions per category; traces that never entered a
	// category contribute 0 there so the quantiles describe the missed
	// population, not just the traces a category appeared in.
	perTrace := make([]map[string]float64, 0, len(recs))
	cats := make(map[string]bool, 8)
	for _, rec := range recs {
		attrs := CriticalPath(rec)
		if attrs == nil {
			continue
		}
		mb.Missed++
		mb.TotalOverrunUS += float64(rec.OverrunUS)
		m := make(map[string]float64, len(attrs))
		for _, a := range attrs {
			m[a.Category] = a.OverrunUS
			cats[a.Category] = true
		}
		perTrace = append(perTrace, m)
	}
	if mb.Missed == 0 {
		return mb
	}
	for cat := range cats {
		var total float64
		samples := make([]float64, 0, len(perTrace))
		for _, m := range perTrace {
			v := m[cat]
			total += v
			samples = append(samples, v)
		}
		sort.Float64s(samples)
		share := 0.0
		if mb.TotalOverrunUS > 0 {
			share = total / mb.TotalOverrunUS
		}
		mb.Categories = append(mb.Categories, CategoryShare{
			Category:  cat,
			OverrunUS: total,
			Share:     share,
			P50US:     stats.NearestRank(samples, 0.50),
			P95US:     stats.NearestRank(samples, 0.95),
		})
	}
	sort.Slice(mb.Categories, func(i, j int) bool {
		if mb.Categories[i].OverrunUS != mb.Categories[j].OverrunUS {
			return mb.Categories[i].OverrunUS > mb.Categories[j].OverrunUS
		}
		return mb.Categories[i].Category < mb.Categories[j].Category
	})
	return mb
}

// Render prints the miss budget as a human-readable table.
func (mb MissBudget) Render(w io.Writer) {
	if mb.Missed == 0 {
		fmt.Fprintf(w, "miss budget: no missed chunks in the kept traces\n")
		return
	}
	fmt.Fprintf(w, "miss budget — %d missed chunks, total overrun %.3fs\n",
		mb.Missed, mb.TotalOverrunUS/1e6)
	fmt.Fprintf(w, "  %-10s %7s %10s %12s %12s\n",
		"category", "share", "total", "p50/chunk", "p95/chunk")
	for _, c := range mb.Categories {
		fmt.Fprintf(w, "  %-10s %6.1f%% %9.3fs %11.1fms %11.1fms\n",
			c.Category, 100*c.Share, c.OverrunUS/1e6, c.P50US/1e3, c.P95US/1e3)
	}
}
