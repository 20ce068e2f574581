package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mpdash/internal/stats"
)

// Labels is one metric series' label set. Registry keys series on the
// sorted, escaped rendering of their labels, so map ordering is
// irrelevant.
type Labels map[string]string

// render returns the canonical {k="v",...} rendering of l (empty string
// for no labels), with keys sorted and values escaped per the Prometheus
// text format. This sits on the metric-handle hot path (every labeled
// lookup renders its key), so it avoids fmt and allocates exactly once
// for the common single-label set.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	if len(l) == 1 {
		// Fast path: no key slice, no sort, one sized Builder allocation.
		for k, v := range l {
			ev := escapeLabel(v)
			var b strings.Builder
			b.Grow(len(k) + len(ev) + 4)
			b.WriteByte('{')
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(ev)
			b.WriteString(`"}`)
			return b.String()
		}
	}
	keys := make([]string, 0, len(l))
	size := 2
	for k, v := range l {
		keys = append(keys, k)
		size += len(k) + len(v) + 4
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes backslash, double quote, and newline per the
// Prometheus text exposition format. Unlike Go's %q it leaves every other
// byte — UTF-8 sequences included — untouched, which is what the format
// specifies (and what scrapers unescape).
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Counter is a monotonically increasing int64 metric. All methods are
// nil-safe: a nil *Counter is the no-op handle instrumented code holds
// when telemetry is off.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored —
// counters are monotonic).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. Nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus-style cumulative
// exposition and linear-interpolation quantile estimation. Buckets are
// the sorted upper bounds; samples above the last bound land in the
// implicit +Inf overflow bucket. Nil-safe.
//
// The write path is lock-free: per-bucket atomic counters plus a CAS
// loop over the float64 sum, so concurrent observers never serialize on
// a histogram mutex. Readers take a field-by-field snapshot; across a
// burst of concurrent writes a scrape may see a sum a few samples ahead
// of the bucket counts (and vice versa), which is the usual Prometheus
// client contract — each field is monotone and exact once writers
// quiesce.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// newHistogram copies and sorts bounds; an empty bounds slice yields a
// single overflow bucket (sum/count still track).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample. NaN samples are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// snapshot reads the histogram's state: per-bucket counts, sum, count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank. It returns NaN on an empty
// histogram or out-of-range q. Samples in the overflow bucket are
// reported as the last finite bound (the estimate saturates there, which
// keeps the estimator monotone in q).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	counts, sum, count := h.snapshot()
	if count == 0 {
		return math.NaN()
	}
	rank := q * float64(count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			if len(h.bounds) == 0 {
				return sum / float64(count) // degenerate: mean
			}
			return h.bounds[len(h.bounds)-1]
		}
		upper := h.bounds[i]
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		} else if upper < 0 {
			lower = upper // all-negative first bucket: saturate
		}
		// Interpolate within [lower, upper] by the rank's position in
		// this bucket.
		inBucket := float64(c)
		if inBucket == 0 {
			return upper
		}
		pos := (rank - float64(cum-c)) / inBucket
		return lower + (upper-lower)*pos
	}
	if len(h.bounds) == 0 {
		return sum / float64(count)
	}
	return h.bounds[len(h.bounds)-1]
}

// DefSecondsBuckets is the default histogram layout for durations
// (seconds): 1 ms … 60 s, roughly logarithmic.
var DefSecondsBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// DefSlackBuckets is the default layout for deadline slack (seconds):
// symmetric around zero so misses (negative slack) resolve too.
var DefSlackBuckets = []float64{-10, -5, -2, -1, -.5, -.1, 0, .1, .5, 1, 2, 5, 10, 30}

// metricKind discriminates a series' exposition behaviour.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered metric instance.
type series struct {
	labels string // canonical rendering
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  int // registration order, for stable exposition
	series map[string]*series
}

// registryShards is the number of independent lock domains a Registry
// splits its families across — a power of two so shard selection is a
// mask. Families land on shards by FNV-1a of the metric name, so
// sessions hammering disjoint metric families never serialize on one
// registry mutex at swarm scale.
const registryShards = 8

// regShard is one lock domain: a slice of the family map guarded by its
// own RWMutex.
type regShard struct {
	mu   sync.RWMutex
	fams map[string]*family
	// Pad the shard out to its own cache lines so neighbouring shards'
	// lock words don't false-share under contention.
	_ [64]byte
}

// Registry holds metric families and renders them in the Prometheus text
// format. Safe for concurrent use; all lookup methods are nil-safe and
// return nil handles on a nil registry, so instrumentation can be wired
// unconditionally. Families are split across power-of-two lock shards
// keyed by metric name, so steady-state handle lookups — by far the
// common case on instrumented hot paths — resolve under a per-shard
// read lock and concurrent sessions touching different families never
// contend; a shard's write lock is only taken to register a new family
// or series. Exposition order is preserved across shards by a global
// registration-order counter, so sharding never changes scrape output.
type Registry struct {
	shards [registryShards]regShard
	n      atomic.Int64 // global registration order across shards
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].fams = make(map[string]*family)
	}
	return r
}

// shard selects name's lock domain (FNV-1a, allocation-free).
func (r *Registry) shard(name string) *regShard {
	return &r.shards[stats.FNVString(stats.FNVOffset, name)&(registryShards-1)]
}

// fam returns (creating if needed) the family for name within sh, which
// the caller holds write-locked. Re-registering an existing series
// returns the existing one.
func (r *Registry) fam(sh *regShard, name, help string, kind metricKind) *family {
	f, ok := sh.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, order: int(r.n.Add(1) - 1), series: make(map[string]*series)}
		sh.fams[name] = f
	}
	return f
}

// lookup resolves the series for (name, key) under the owning shard's
// read lock — the steady-state path of every labeled handle acquisition.
func (r *Registry) lookup(name, key string) *series {
	sh := r.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.fams[name]
	if !ok {
		return nil
	}
	return f.series[key]
}

// Counter returns the counter series for (name, labels), registering it
// on first use. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	key := labels.render()
	if s := r.lookup(name, key); s != nil && s.c != nil {
		return s.c
	}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := r.fam(sh, name, help, kindCounter)
	if s, ok := f.series[key]; ok && s.c != nil {
		return s.c
	}
	c := &Counter{}
	f.series[key] = &series{labels: key, c: c}
	return c
}

// Gauge returns the gauge series for (name, labels). Nil-safe.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	key := labels.render()
	if s := r.lookup(name, key); s != nil && s.g != nil {
		return s.g
	}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := r.fam(sh, name, help, kindGauge)
	if s, ok := f.series[key]; ok && s.g != nil {
		return s.g
	}
	g := &Gauge{}
	f.series[key] = &series{labels: key, g: g}
	return g
}

// Histogram returns the histogram series for (name, labels) with the
// given bucket upper bounds (nil = DefSecondsBuckets). Nil-safe.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefSecondsBuckets
	}
	key := labels.render()
	if s := r.lookup(name, key); s != nil && s.h != nil {
		return s.h
	}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := r.fam(sh, name, help, kindHistogram)
	if s, ok := f.series[key]; ok && s.h != nil {
		return s.h
	}
	h := newHistogram(buckets)
	f.series[key] = &series{labels: key, h: h}
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the zero-hot-path-cost way to expose counters a
// component already maintains. Re-registration replaces fn. Nil-safe.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, kindCounterFunc, labels, fn)
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, kindGaugeFunc, labels, fn)
}

func (r *Registry) registerFunc(name, help string, kind metricKind, labels Labels, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := r.fam(sh, name, help, kind)
	key := labels.render()
	f.series[key] = &series{labels: key, fn: fn}
}

// famSnap is one family plus its series list, captured under the
// owning shard's lock so exposition can iterate lock-free.
type famSnap struct {
	f    *family
	sers []*series
}

// snapshotFams returns the families sorted by global registration
// order, each with its series sorted by label rendering. The per-series
// value reads happen outside every registry lock (func-backed series
// may take component locks of their own).
func (r *Registry) snapshotFams() []famSnap {
	var out []famSnap
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, f := range sh.fams {
			sers := make([]*series, 0, len(f.series))
			for _, s := range f.series {
				sers = append(sers, s)
			}
			out = append(out, famSnap{f: f, sers: sers})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].f.order < out[j].f.order })
	for _, fs := range out {
		sort.Slice(fs.sers, func(i, j int) bool { return fs.sers[i].labels < fs.sers[j].labels })
	}
	return out
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4). Nil-safe. Output is byte-stable
// under sharding: families render in global registration order, series
// in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fs := range r.snapshotFams() {
		f, sers := fs.f, fs.sers
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.h != nil:
		return writeHistogram(w, f.name, s)
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
		return err
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.g.Value()))
		return err
	}
	return nil
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	counts, sum, count := h.snapshot()
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.labels, formatValue(bound)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, count)
	return err
}

// mergeLE splices le="bound" into an existing (possibly empty) rendered
// label set.
func mergeLE(labels, bound string) string {
	le := fmt.Sprintf("le=%q", bound)
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
