// Command bench is the repository's benchmark: five fixed workloads, the
// end-to-end metrics a user of the system would see, and a per-layer
// cost ledger. See README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//	bench [--seed N] [--seconds S]                         every workload, both passes
//
// One pass prints every metric by name with its unit and, as the last
// line of standard output, the JSON object BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpdash/internal/perf"
)

// runConfig is one pass's inputs.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string
}

// specs is the metric list the pass reports.
func (c runConfig) specs() []spec {
	if c.trace {
		return perLayer
	}
	return endToEnd
}

// warmup precedes every closed-loop window.
func (c runConfig) warmup() time.Duration { return min(c.window/6, 2*time.Second) }

// outcome is what one pass of one workload reports.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	notes             []string
	// exact holds outputs that must repeat bit-for-bit across runs.
	exact map[string]float64
}

func newOutcome(attempted, failed int64, problems []string) *outcome {
	return &outcome{attempted: attempted, failed: failed, problems: problems,
		values: map[string]float64{}, exact: map[string]float64{}}
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

func (o *outcome) problemf(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

func socketWorkload(name string) workload {
	kind := socketKinds[name]
	return workload{name: name, run: func(cfg runConfig) (*outcome, error) {
		if cfg.trace {
			return runSocketTraced(kind, cfg)
		}
		return runSocketTimed(kind, cfg)
	}}
}

var workloads = []workload{
	socketWorkload("origin-direct"),
	socketWorkload("edge-hot"),
	socketWorkload("edge-churn"),
	{name: "paced-swarm", run: runSwarm},
	{name: "sim-field", run: runField},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a pass's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runPass runs one pass and renders its result: every metric of the
// pass's list, in list order, present whether or not the workload
// exercises the layer (an unexercised per-layer metric reads 0).
func runPass(w workload, cfg runConfig) (*outcome, resultLine, error) {
	// A traced pass reads the host's speed before and after itself, so
	// whoever reads its nanoseconds knows what kind of minute they were
	// measured in.
	var h *hostRef
	if cfg.trace {
		var err error
		if h, err = newHostRef(); err != nil {
			return nil, resultLine{}, err
		}
		defer h.close()
	}
	slow := h.slowdown()
	o, err := w.run(cfg)
	if err != nil {
		return nil, resultLine{}, err
	}
	if cfg.trace {
		o.values["host.slowdown"] = (slow + h.slowdown()) / 2
	}
	specs := cfg.specs()
	line := resultLine{Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricJSON{}}
	listed := map[string]bool{}
	for _, s := range specs {
		listed[s.name] = true
	}
	for name := range o.values {
		if !listed[name] {
			o.problemf("metric %s is reported but not listed", name)
		}
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok && !cfg.trace {
			o.problemf("end-to-end metric %s was not measured", s.name)
		}
		line.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	line.Correct = o.failed == 0 && len(o.problems) == 0
	return o, line, nil
}

func printPass(w workload, cfg runConfig, o *outcome, line resultLine) error {
	fmt.Printf("# %s seed %d trace %v\n", w.name, cfg.seed, cfg.trace)
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Printf("# INCORRECT: %s\n", p)
	}
	exact := make([]string, 0, len(o.exact))
	for k := range o.exact {
		exact = append(exact, k)
	}
	sort.Strings(exact)
	for _, k := range exact {
		fmt.Printf("# exact %s = %v (%#x)\n", k, o.exact[k], math.Float64bits(o.exact[k]))
	}
	for _, s := range cfg.specs() {
		fmt.Printf("%-36s %14.6g %s\n", s.name, line.Metrics[s.name].Value, s.unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one pass of this workload (default: every workload, both passes)")
		seed    = flag.Int64("seed", 1, "workload seed: key sequences and the paced-swarm plan derive from it")
		seconds = flag.Float64("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results, spans and the environment fingerprint")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		if err := runSet(cfg, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		o, line, err := runPass(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := printPass(w, cfg, o, line); err != nil {
			fatal(err)
		}
		if !line.Correct {
			os.Exit(1)
		}
		return
	}
	fatal(fmt.Errorf("unknown workload %q", *name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runSet runs every workload's two passes, each in a child process of
// its own so heap, GC state and goroutines of one never reach the next,
// and writes the results and the environment fingerprint to the output
// directory.
func runSet(cfg runConfig, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := map[string]map[string]resultLine{}
	bad := 0
	for _, w := range workloads {
		results[w.name] = map[string]resultLine{}
		for _, pass := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(seconds), "--trace", pass, "--out", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			os.Stdout.Write(out)
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s trace %s: no result line (%v): %w", w.name, pass, runErr, err)
			}
			if !line.Correct {
				bad++
			}
			results[w.name]["trace"+pass] = line
		}
	}
	set := struct {
		Env     perf.Env                         `json:"env"`
		Commit  string                           `json:"commit"`
		Seed    int64                            `json:"seed"`
		Seconds float64                          `json:"seconds"`
		Results map[string]map[string]resultLine `json:"results"`
	}{perf.CaptureEnv(), commit(), cfg.seed, seconds, results}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d passes failed the correctness gate", bad)
	}
	return nil
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout (the driver's copy is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
