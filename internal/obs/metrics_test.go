package obs

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	c = &Counter{}
	c.Inc()
	c.Add(4)
	c.Add(-10) // monotonic: negative deltas ignored
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGaugeNilSafe(t *testing.T) {
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	g = &Gauge{}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Errorf("gauge = %v, want -2.5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("empty histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); !math.IsNaN(v) {
			t.Errorf("Quantile(%v) on empty = %v, want NaN", q, v)
		}
	}
	var nilH *Histogram
	nilH.Observe(1)
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram quantile not NaN")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(1.5)
	if h.Count() != 1 || h.Sum() != 1.5 {
		t.Fatalf("count=%d sum=%v, want 1, 1.5", h.Count(), h.Sum())
	}
	// Every quantile resolves inside the (1, 2] bucket.
	for _, q := range []float64{0, 0.5, 1} {
		v := h.Quantile(q)
		if v < 1 || v > 2 {
			t.Errorf("Quantile(%v) = %v, want within (1, 2]", q, v)
		}
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100) // far past the last bound
	h.Observe(200)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	// Overflow samples saturate the estimate at the last finite bound.
	if v := h.Quantile(0.5); v != 2 {
		t.Errorf("Quantile(0.5) = %v, want saturation at 2", v)
	}
	if v := h.Quantile(1); v != 2 {
		t.Errorf("Quantile(1) = %v, want saturation at 2", v)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := newHistogram(DefSecondsBuckets)
	// A deterministic spread including underflow, mid-range and overflow.
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%97) * 0.9)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if math.IsNaN(v) {
			t.Fatalf("Quantile(%v) = NaN on populated histogram", q)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: not monotone", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Error("NaN sample was recorded")
	}
}

func TestHistogramOutOfRangeQuantile(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if v := h.Quantile(q); !math.IsNaN(v) {
			t.Errorf("Quantile(%v) = %v, want NaN", q, v)
		}
	}
}

func TestRegistrySameSeriesReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"path": "wifi"})
	b := r.Counter("x_total", "help", Labels{"path": "wifi"})
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	c := r.Counter("x_total", "help", Labels{"path": "lte"})
	if a == c {
		t.Error("different labels share a counter")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "", nil).Inc()
	r.Gauge("b", "", nil).Set(1)
	r.Histogram("c", "", nil, nil).Observe(1)
	r.CounterFunc("d", "", nil, func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpdash_test_total", "A counter.", Labels{"b": "2", "a": "1"}).Add(7)
	r.GaugeFunc("mpdash_test_gauge", "A gauge.", nil, func() float64 { return 2.5 })
	h := r.Histogram("mpdash_test_seconds", "A histogram.", []float64{1, 2}, Labels{"path": "wifi"})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9) // overflow

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP mpdash_test_total A counter.",
		"# TYPE mpdash_test_total counter",
		`mpdash_test_total{a="1",b="2"} 7`,
		"# TYPE mpdash_test_gauge gauge",
		"mpdash_test_gauge 2.5",
		"# TYPE mpdash_test_seconds histogram",
		`mpdash_test_seconds_bucket{path="wifi",le="1"} 1`,
		`mpdash_test_seconds_bucket{path="wifi",le="2"} 2`,
		`mpdash_test_seconds_bucket{path="wifi",le="+Inf"} 3`,
		`mpdash_test_seconds_sum{path="wifi"} 11`,
		`mpdash_test_seconds_count{path="wifi"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestEscapeLabelHostileValues(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line\nbreak", `line\nbreak`},
		{"\\\"\n", `\\\"\n`},
		{"утф-8 ✓", "утф-8 ✓"}, // non-ASCII passes through unescaped
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHostileLabelExposition(t *testing.T) {
	// A hostile label value must render escaped in the exposition, and the
	// same hostile Labels map must key the same series on re-registration.
	r := NewRegistry()
	hostile := Labels{"err": "dial \"x\\y\"\nrefused"}
	r.Counter("mpdash_hostile_total", "h.", hostile).Add(3)
	if c := r.Counter("mpdash_hostile_total", "h.", hostile); c.Value() != 3 {
		t.Errorf("hostile labels did not key the same series: %d", c.Value())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `mpdash_hostile_total{err="dial \"x\\y\"\nrefused"} 3`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q\n%s", want, b.String())
	}
	if strings.Contains(b.String(), "\nrefused") {
		t.Errorf("raw newline leaked into exposition:\n%s", b.String())
	}
}

func TestRenderSingleLabelFastPath(t *testing.T) {
	// The one-label fast path must produce exactly the canonical form the
	// multi-label path would, escaping included.
	cases := map[string]Labels{
		`{path="wifi"}`:         {"path": "wifi"},
		`{p="a\"b\\c\nd"}`:      {"p": "a\"b\\c\nd"},
		`{a="1",b="2",c="3"}`:   {"c": "3", "a": "1", "b": "2"},
		`{x="y\\z",zz="plain"}`: {"zz": "plain", "x": `y\z`},
	}
	for want, l := range cases {
		if got := l.render(); got != want {
			t.Errorf("render(%v) = %q, want %q", l, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = Labels{"path": "wifi"}.render()
	}); n > 2 { // map literal + builder buffer
		t.Errorf("single-label render allocates %v per run, want ≤ 2", n)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// The lock-free write path: hammer one histogram from many
	// goroutines and check nothing is lost (count, sum, bucket total all
	// exact once writers quiesce).
	h := newHistogram([]float64{1, 2, 3})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64((w + i) % 5)) // 0..4: spans all buckets + overflow
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*per); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	counts, sum, count := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != count {
		t.Fatalf("bucket total %d vs count %d", total, count)
	}
	var wantSum float64
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			wantSum += float64((w + i) % 5)
		}
	}
	if sum != wantSum {
		t.Fatalf("sum %v, want %v", sum, wantSum)
	}
}

func TestRegistryConcurrentHandleLookup(t *testing.T) {
	// The RWMutex fast path: concurrent steady-state lookups racing
	// first-use registrations must always converge on one series.
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Counter("conc_total", "c", Labels{"path": "wifi"}).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "c", Labels{"path": "wifi"}).Value(); got != 16000 {
		t.Fatalf("counter %d, want 16000 (split series?)", got)
	}
}

// memPerRun is testing.AllocsPerRun with a byte count: op once, then runs
// times on one P; mallocs and bytes per run, truncated.
func memPerRun(runs int, op func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMetricHotPathAllocs: re-resolving a labeled counter (label-map
// literal, canonical render, registry lookup, add) may grow by at most
// 15 % over the one allocation and 16 B recorded here; a histogram
// observation allocates nothing.
func TestMetricHotPathAllocs(t *testing.T) {
	const baseAllocs, baseBytes = 1, 16
	r := NewRegistry()
	// Registered first, so the count is the steady-state lookup.
	r.Counter("mpdash_path_bytes_total", "bench", Labels{"path": "wifi"})
	r.Counter("mpdash_path_bytes_total", "bench", Labels{"path": "lte"})
	allocs, bytes := memPerRun(1000, func() {
		r.Counter("mpdash_path_bytes_total", "bench", Labels{"path": "wifi"}).Add(1)
	})
	if float64(allocs) > baseAllocs*1.15 || float64(bytes) > baseBytes*1.15 {
		t.Errorf("labeled counter lookup: %d allocs, %d B per op; want at most %v and %v (base × 1.15)",
			allocs, bytes, baseAllocs*1.15, baseBytes*1.15)
	}

	h := r.Histogram("mpdash_chunk_duration_seconds", "bench", DefSecondsBuckets, nil)
	i := 0
	allocs, bytes = memPerRun(1000, func() {
		for k := 0; k < 128; k++ {
			h.Observe(float64(i%40) * 0.02)
			i++
		}
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("128 histogram observations: %d allocs, %d B; want 0", allocs, bytes)
	}
}

// TestExpositionPinned: fixed samples in, quantile estimates pinned to
// the last bit and a byte-exact Prometheus rendering out.
func TestExpositionPinned(t *testing.T) {
	const wantP50, wantP99, wantBytes = 0.3846153846153846, 0.9857142857142858, 787
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "Ops.", Labels{"kind": "domain"})
	h := r.Histogram("bench_seconds", "Durations.", DefSecondsBuckets, nil)
	for i := 0; i < 1000; i++ {
		c.Inc()
		h.Observe(float64(i%40) * 0.02)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 != wantP50 || p99 != wantP99 || b.Len() != wantBytes {
		t.Errorf("p50 %v, p99 %v, %d exposition bytes; want %v, %v, %d", p50, p99, b.Len(), wantP50, wantP99, wantBytes)
	}
}
