// Package perf is the deterministic contract gate: a fixed suite of
// micro and macro scenarios over the repo's hot paths — the core
// scheduler tick (Algorithm 1 decision loop), the Holt-Winters update,
// the offline knapsack DP, the simulator packet path, obs metric handles
// and tracing, the edge cache, a real-socket single-session fetch and
// the socket stack's wire path — written to versioned BENCH_core.json /
// BENCH_netmp.json files that cmd/mpdash-benchgate diffs against the
// checked-in BENCH_baseline.json.
//
// No row is a time. Micro scenarios report heap allocations and bytes
// per logical op; every scenario may report domain metrics, each
// carrying its own gate policy (exact, max, min, or info) so the
// comparison knows which movements are regressions. Exact-gated metrics
// are verified identical across trials at run time (a determinism
// violation fails the run rather than producing an unstable baseline).
// Timed numbers come from the bench/ module's alternating pairs.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Version is the BENCH_*.json schema version; benchgate refuses to
// compare across versions.
const Version = 2

// Gate policies for domain metrics.
const (
	// GateExact fails on any change — the metric is deterministic.
	GateExact = "exact"
	// GateMax fails when fresh > base+Abs (lower is better).
	GateMax = "max"
	// GateMin fails when fresh < base-Abs (higher is better).
	GateMin = "min"
	// GateInfo is never gated; recorded for trend-watching only.
	GateInfo = "info"
)

// Metric is one domain metric with its gate policy attached, so the
// baseline itself documents how each number may move.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Gate is one of GateExact, GateMax, GateMin, GateInfo.
	Gate string `json:"gate"`
	// Abs is the absolute slack for max/min gates.
	Abs float64 `json:"abs,omitempty"`
}

// Bench is one scenario's result. Micro scenarios carry B/op and
// allocs/op; macro scenarios carry domain metrics only (their
// allocation profile is dominated by goroutine and socket machinery,
// which their own metrics count where it is a contract).
type Bench struct {
	Name     string   `json:"name"`
	BOp      *float64 `json:"b_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
	Metrics  []Metric `json:"metrics,omitempty"`
}

// metric returns the named domain metric, or nil.
func (b *Bench) metric(name string) *Metric {
	for i := range b.Metrics {
		if b.Metrics[i].Name == name {
			return &b.Metrics[i]
		}
	}
	return nil
}

// Env is the environment fingerprint stamped into every result file.
// The gate prints it beside each suite; no row depends on it.
type Env struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
}

// CaptureEnv fingerprints the running environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// String renders the fingerprint on one line.
func (e Env) String() string {
	cpu := e.CPU
	if cpu == "" {
		cpu = "unknown-cpu"
	}
	return fmt.Sprintf("%s %s/%s %d-cpu (GOMAXPROCS %d) %s",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, cpu)
}

// SuiteResult is one suite's full run — the BENCH_<suite>.json payload.
type SuiteResult struct {
	Version int     `json:"version"`
	Suite   string  `json:"suite"`
	Env     Env     `json:"env"`
	Benches []Bench `json:"benches"`
}

// bench returns the named bench result, or nil.
func (s *SuiteResult) bench(name string) *Bench {
	for i := range s.Benches {
		if s.Benches[i].Name == name {
			return &s.Benches[i]
		}
	}
	return nil
}

// Baseline is the checked-in BENCH_baseline.json: one SuiteResult per
// suite, refreshed via `go run ./cmd/mpdash-benchgate -update`.
type Baseline struct {
	Version int                     `json:"version"`
	Note    string                  `json:"note,omitempty"`
	Suites  map[string]*SuiteResult `json:"suites"`
}

const (
	// trials is how many times each scenario's domain metrics are
	// produced; foldMetricTrials checks exact metrics agree across them.
	trials = 3
	// allocRuns is how many times a micro op runs between the two heap
	// snapshots that count its allocations.
	allocRuns = 1000
)

// scenario is one suite entry. Micro scenarios define setup, returning
// the op whose allocations are counted. domain, when set, is one trial
// producing domain metrics: a fixed-work deterministic side run for a
// micro scenario, the whole of a macro one.
type scenario struct {
	name string
	// inner is the micro batch size: each op performs inner logical
	// operations; reported counts are divided by inner.
	inner  int
	setup  func() (func(), error)
	domain func() ([]Metric, error)
}

// Suites lists the suite names in run order.
func Suites() []string { return []string{"core", "netmp"} }

// suiteScenarios maps a suite name to its fixed scenario list.
func suiteScenarios(suite string) ([]*scenario, error) {
	switch suite {
	case "core":
		return coreScenarios(), nil
	case "netmp":
		return netmpScenarios(), nil
	}
	return nil, fmt.Errorf("perf: unknown suite %q (have %s)", suite, strings.Join(Suites(), ", "))
}

// RunSuite executes the named suite; logf, when not nil, receives one
// progress line per scenario.
func RunSuite(suite string, logf func(format string, a ...any)) (*SuiteResult, error) {
	scs, err := suiteScenarios(suite)
	if err != nil {
		return nil, err
	}
	res := &SuiteResult{Version: Version, Suite: suite, Env: CaptureEnv()}
	for _, sc := range scs {
		if logf != nil {
			logf("perf: %s/%s\n", suite, sc.name)
		}
		b, err := runScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("perf: %s/%s: %w", suite, sc.name, err)
		}
		res.Benches = append(res.Benches, *b)
	}
	return res, nil
}

func runScenario(sc *scenario) (*Bench, error) {
	b := &Bench{Name: sc.name}
	if sc.setup != nil {
		op, err := sc.setup()
		if err != nil {
			return nil, err
		}
		allocs, bytes := countAllocs(op, allocRuns)
		inner := float64(max(sc.inner, 1))
		a, by := float64(allocs)/inner, float64(bytes)/inner
		b.AllocsOp, b.BOp = &a, &by
	}
	if sc.domain == nil {
		return b, nil
	}
	metricTrials := make([][]Metric, 0, trials)
	for t := 0; t < trials; t++ {
		ms, err := sc.domain()
		if err != nil {
			return nil, err
		}
		metricTrials = append(metricTrials, ms)
	}
	ms, err := foldMetricTrials(metricTrials)
	if err != nil {
		return nil, err
	}
	b.Metrics = ms
	return b, nil
}

// countAllocs is testing.AllocsPerRun's method: op once to warm up, then
// runs times on one P between two heap snapshots. Mallocs and bytes per
// run are truncated, as testing.BenchmarkResult's per-op accounting is,
// so one-off allocations amortized over the runs count as zero instead
// of leaving a fraction that breaks a zero-alloc contract.
func countAllocs(op func(), runs int) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// foldMetricTrials merges per-trial domain metrics: exact-gated metrics
// must be identical across trials (a violation is a determinism bug and
// fails the run); gated and info metrics take the median.
func foldMetricTrials(trials [][]Metric) ([]Metric, error) {
	if len(trials) == 0 {
		return nil, nil
	}
	out := append([]Metric(nil), trials[0]...)
	for i := range out {
		vals := make([]float64, 0, len(trials))
		for t, tr := range trials {
			if i >= len(tr) || tr[i].Name != out[i].Name {
				return nil, fmt.Errorf("trial %d: metric list diverged at %q", t, out[i].Name)
			}
			vals = append(vals, tr[i].Value)
		}
		if out[i].Gate == GateExact {
			for t, v := range vals {
				if v != vals[0] {
					return nil, fmt.Errorf("exact metric %q not deterministic: trial 0 %v vs trial %d %v",
						out[i].Name, vals[0], t, v)
				}
			}
			continue
		}
		sort.Float64s(vals)
		out[i].Value = vals[len(vals)/2]
		if len(vals)%2 == 0 {
			out[i].Value = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
		}
	}
	return out, nil
}

// ---- persistence ----

// SuiteFileName returns the conventional per-suite result file name
// (BENCH_core.json, BENCH_netmp.json).
func SuiteFileName(suite string) string { return "BENCH_" + suite + ".json" }

// WriteSuite writes one suite result, indented, to path.
func (s *SuiteResult) WriteSuite(path string) error {
	return writeJSON(path, s)
}

// WriteBaseline writes the combined baseline, indented, to path.
func (b *Baseline) WriteBaseline(path string) error {
	return writeJSON(path, b)
}

// LoadBaseline reads and validates a BENCH_baseline.json.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: read: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("perf: decode %s: %w", path, err)
	}
	if b.Version != Version {
		return nil, fmt.Errorf("perf: %s: schema version %d, want %d", path, b.Version, Version)
	}
	if len(b.Suites) == 0 {
		return nil, fmt.Errorf("perf: %s: baseline has no suites", path)
	}
	for name, s := range b.Suites {
		if s == nil || len(s.Benches) == 0 {
			return nil, fmt.Errorf("perf: %s: suite %q is empty", path, name)
		}
	}
	return &b, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("perf: write: %w", err)
	}
	return nil
}
