// Package cli holds what the commands share: flag parsing and, for the
// socket commands (mpdash-netfetch, -netserve, -edge and -swarm), the
// telemetry and tracing flag groups, the interrupt handlers, and the
// reader of their documented usage lines.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/signal"
	"path"
	"strings"

	"mpdash/internal/obs"
)

// Parse parses args into fs. A command takes flags only: ok is false,
// and code the exit code, after -h (0), a flag error or an argument that
// is not a flag (2).
func Parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected argument %q\n", fs.Arg(0))
		return 2, false
	}
	return 0, true
}

// Telemetry is the -metrics-addr, -journal and -quiet flag group.
type Telemetry struct {
	out                  io.Writer
	metricsAddr, journal *string
	quiet                *bool
}

// AddTelemetry declares the telemetry group on fs; Infof writes to out.
func AddTelemetry(fs *flag.FlagSet, out io.Writer) *Telemetry {
	return &Telemetry{
		out:         out,
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address (e.g. 127.0.0.1:9090; empty = off)"),
		journal:     fs.String("journal", "", "stream the structured event journal to this JSONL file (- = stderr)"),
		quiet:       fs.Bool("quiet", false, "suppress informational output (errors still print)"),
	}
}

// Quiet reports -quiet.
func (t *Telemetry) Quiet() bool { return *t.quiet }

// Infof prints informational output unless -quiet is set.
func (t *Telemetry) Infof(format string, a ...any) {
	if !*t.quiet {
		fmt.Fprintf(t.out, format, a...)
	}
}

// Open starts the journal stream and the metrics server the flags ask
// for. With neither flag set it returns a nil *obs.Telemetry, which
// every Instrument method ignores, and a close that does nothing.
func (t *Telemetry) Open() (*obs.Telemetry, func(), error) {
	if *t.metricsAddr == "" && *t.journal == "" {
		return nil, func() {}, nil
	}
	return obs.Open(*t.journal, *t.metricsAddr, t.Infof)
}

// Tracing is the -trace, -trace-chrome and -trace-sample flag group.
type Tracing struct {
	jsonl, chrome *string
	sample        *float64
}

// AddTracing declares the tracing group on fs; sample is the default
// head-sample fraction of healthy traces.
func AddTracing(fs *flag.FlagSet, sample float64) *Tracing {
	return &Tracing{
		jsonl:  fs.String("trace", "", "write kept per-chunk span traces to this JSONL file (enables tracing)"),
		chrome: fs.String("trace-chrome", "", "additionally write kept traces as Chrome trace-event JSON (load in chrome://tracing or Perfetto)"),
		sample: fs.Float64("trace-sample", sample, "head-sample fraction of healthy traces kept (bad traces — misses, aborts, downgrades, requeues, panics — are always kept)"),
	}
}

// Tracer returns a tracer seeded with seed, or nil when neither -trace
// nor -trace-chrome is set.
func (t *Tracing) Tracer(seed int64) *obs.Tracer {
	if *t.jsonl == "" && *t.chrome == "" {
		return nil
	}
	return obs.NewTracer(obs.TraceConfig{HeadSampleRate: *t.sample, Seed: seed})
}

// Export writes tr's kept traces to the -trace and -trace-chrome files
// and tells infof how many it kept. A nil tr writes nothing.
func (t *Tracing) Export(tr *obs.Tracer, infof func(format string, a ...any)) error {
	if tr == nil {
		return nil
	}
	if err := tr.Export(*t.jsonl, *t.chrome); err != nil {
		return err
	}
	ts := tr.Stats()
	infof("traces: kept %d of %d (%d bad, %d sampled)\n", ts.Kept, ts.Finished, ts.KeptBad, ts.KeptSampled)
	return nil
}

// OnInterrupt calls stop on the first Ctrl-C, after printing
// "interrupt: why" to stderr, and exits 1 on the second.
func OnInterrupt(stderr io.Writer, why string, stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(stderr, "\ninterrupt: "+why)
		stop()
		<-sig
		os.Exit(1)
	}()
}

// WaitInterrupt blocks until the first Ctrl-C; later ones are ignored.
func WaitInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

// UsageLines returns the arguments of every line that starts with the
// command cmd in the package doc comment of the Go file mainGo and in
// the markdown file readme. A `\` continuation joins the next line, a
// shell variable such as $WIFI becomes a placeholder, and an `&`, `|` or
// `#` ends the arguments.
func UsageLines(cmd, mainGo, readme string) ([][]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), mainGo, nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	md, err := os.ReadFile(readme)
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, line := range strings.Split(strings.ReplaceAll(f.Doc.Text()+string(md), "\\\n", " "), "\n") {
		words := strings.Fields(line)
		if len(words) == 0 || path.Base(words[0]) != cmd {
			continue
		}
		args := []string{}
		for _, w := range words[1:] {
			if w == "&" || w == "|" || w == "#" {
				break
			}
			if strings.HasPrefix(w, "$") {
				w = "placeholder"
			}
			args = append(args, w)
		}
		out = append(out, args)
	}
	return out, nil
}
