// Command mpdash-field runs the 33-location field study (paper §7.3.3) —
// FESTIVE and BBA, each under vanilla MPTCP and MP-DASH with rate-based
// and duration-based deadlines — and prints per-location savings plus the
// pooled Figure 9/10 distributions.
//
// Usage:
//
//	mpdash-field                 # full study, 150-chunk sessions
//	mpdash-field -chunks 60      # faster, shorter sessions
//	mpdash-field -location "Hotel Hi"
//	mpdash-field -json - | jq .  # JSON on stdout, the table on stderr
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpdash"
	"mpdash/internal/field"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit code. With -json -, the JSON
// alone goes to stdout and the human-readable report to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpdash-field", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chunks   = fs.Int("chunks", 150, "chunks per session")
		location = fs.String("location", "", "run a single location by name")
		jsonOut  = fs.String("json", "", "also write the study as JSON to this file ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	out := stdout
	if *jsonOut == "-" {
		out = stderr
	}

	var study *field.StudyResult
	if *location != "" {
		loc, ok := field.ByName(*location)
		if !ok {
			fmt.Fprintf(stderr, "unknown location %q; available:\n", *location)
			for _, l := range mpdash.FieldLocations() {
				fmt.Fprintf(stderr, "  %s\n", l.Name)
			}
			return 2
		}
		var err error
		if study, err = field.RunStudy(field.StudyConfig{Locations: []field.Location{loc}, Chunks: *chunks}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printOutcomes(out, study)
	} else {
		fmt.Fprintf(out, "running %d locations × 6 sessions of %d chunks each...\n",
			len(mpdash.FieldLocations()), *chunks)
		s, err := mpdash.RunFieldStudySummary(*chunks)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		study = s.Study
		printOutcomes(out, study)
		fmt.Fprintf(out, "\npooled cellular savings (25/50/75 pct): %.0f%% / %.0f%% / %.0f%%  (paper: 48/59/82)\n",
			s.SavingsPercentiles[0]*100, s.SavingsPercentiles[1]*100, s.SavingsPercentiles[2]*100)
		fmt.Fprintf(out, "pooled energy savings (25/50/75 pct): %.0f%% / %.0f%% / %.0f%%  (paper: 7.7/17/53)\n",
			s.EnergyPercentiles[0]*100, s.EnergyPercentiles[1]*100, s.EnergyPercentiles[2]*100)
		fmt.Fprintf(out, "experiments with no bitrate reduction: %.1f%%  (paper: 82.65%%)\n",
			s.NoBitrateReductionFrac*100)
	}
	if *jsonOut != "" {
		if err := writeJSON(study, *jsonOut, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// writeJSON writes the study to path, or to stdout for "-".
func writeJSON(study *field.StudyResult, path string, stdout io.Writer) error {
	if path == "-" {
		return study.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = study.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return err
}

func printOutcomes(w io.Writer, study *field.StudyResult) {
	fmt.Fprintf(w, "\n%-16s %-10s %5s | %9s %9s %9s %9s\n",
		"Location", "Scenario", "WiFi", "FES/Rate", "FES/Dur", "BBA/Rate", "BBA/Dur")
	for _, o := range study.Outcomes {
		fmt.Fprintf(w, "%-16s %-10d %5.1f |", o.Location.Name, o.Location.Scenario(), o.Location.WiFiMbps)
		for _, k := range field.SchemeKeys() {
			fmt.Fprintf(w, " %8.1f%%", o.CellularSaving(k)*100)
		}
		fmt.Fprintln(w)
	}
}
