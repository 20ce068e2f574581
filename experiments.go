package mpdash

import (
	"fmt"
	"time"

	"mpdash/internal/analysis"
	"mpdash/internal/core"
	"mpdash/internal/dash"
	"mpdash/internal/field"
	"mpdash/internal/harness"
	"mpdash/internal/mptcp"
	"mpdash/internal/predict"
	"mpdash/internal/stats"
	"mpdash/internal/trace"
)

// This file defines one constructor per table and figure of the paper's
// evaluation (§7). Each returns structured rows that cmd/mpdash-tables
// prints and bench_test.go regenerates; EXPERIMENTS.md records how the
// shapes compare with the paper.

// mb converts bytes to megabytes (decimal, as the paper reports).
func mb(b int64) float64 { return float64(b) / 1e6 }

// ---------------------------------------------------------------- Fig. 1

// SeriesSet is a set of named per-window throughput series (Mbps).
type SeriesSet struct {
	Window time.Duration
	Names  []string
	Series [][]float64
}

// Fig1VanillaThroughput reproduces Figure 1: WiFi/LTE subflow throughput
// while a DASH video plays over unmodified MPTCP at W3.8/L3.0.
func Fig1VanillaThroughput(chunks int) (*SeriesSet, error) {
	wifi, lte := LabConditions()[0].Traces()
	res, err := harness.RunSession(harness.SessionConfig{
		WiFi: wifi, LTE: lte, Algorithm: harness.GPAC, Scheme: harness.Baseline, Chunks: chunks,
	})
	if err != nil {
		return nil, err
	}
	agg := make([]float64, len(res.WiFiSeries))
	for i := range agg {
		agg[i] = res.WiFiSeries[i]
		if i < len(res.LTESeries) {
			agg[i] += res.LTESeries[i]
		}
	}
	return &SeriesSet{
		Window: res.MeterWindow,
		Names:  []string{"MPTCP", "WiFi", "LTE"},
		Series: [][]float64{agg, res.WiFiSeries, res.LTESeries},
	}, nil
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Row is one chunk of the BBA oscillation plot.
type Fig3Row struct {
	ChunkIndex  int
	BitrateMbps float64
}

// Fig3BBAOscillation reproduces Figure 3: the original BBA oscillating
// between two ladder rungs when the MPTCP capacity sits between them
// (W2.2/L1.2 ⇒ ≈3.4 Mbps between the 2.41 and 3.94 rungs).
func Fig3BBAOscillation(chunks int) ([]Fig3Row, error) {
	wifi, lte := LabConditions()[2].Traces()
	res, err := harness.RunSession(harness.SessionConfig{
		WiFi: wifi, LTE: lte, Algorithm: harness.BBA, Scheme: harness.Baseline, Chunks: chunks,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, 0, len(res.Report.Results))
	for _, r := range res.Report.Results {
		rows = append(rows, Fig3Row{ChunkIndex: r.Meta.Index, BitrateMbps: r.Meta.NominalBps / 1e6})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Row is one bar/dot pair of Figure 4.
type Fig4Row struct {
	Scheduler   string
	Label       string // "Baseline", "8s", "9s", "10s"
	LTEMB       float64
	EnergyJ     float64
	DurationSec float64
	Missed      bool
}

// Fig4SchedulerComparison reproduces Figure 4: 5 MB download over
// W3.8/L3.0 — vanilla MPTCP versus MP-DASH with deadlines 8/9/10 s, under
// the default and round-robin packet schedulers.
func Fig4SchedulerComparison() ([]Fig4Row, error) {
	wifi, lte := LabConditions()[0].Traces()
	var rows []Fig4Row
	for _, sched := range []mptcp.SchedulerKind{mptcp.MinRTT, mptcp.RoundRobin} {
		for _, d := range []time.Duration{0, 8 * time.Second, 9 * time.Second, 10 * time.Second} {
			res, err := harness.RunFileDownload(harness.FileConfig{
				WiFi: wifi, LTE: lte, SizeBytes: 5_000_000, Deadline: d, Scheduler: sched,
			})
			if err != nil {
				return nil, err
			}
			label := "Baseline"
			if d > 0 {
				label = fmt.Sprintf("%ds", int(d.Seconds()))
			}
			rows = append(rows, Fig4Row{
				Scheduler:   sched.String(),
				Label:       label,
				LTEMB:       mb(res.LTEBytes),
				EnergyJ:     res.RadioJ(),
				DurationSec: res.Duration.Seconds(),
				Missed:      res.MissedBy > 0,
			})
		}
	}
	return rows, nil
}

// AlphaRow is one α setting's outcome (§7.2.1).
type AlphaRow struct {
	Alpha       float64
	LTEMB       float64
	EnergyJ     float64
	DurationSec float64
	Missed      bool
}

// AlphaSweep reproduces the §7.2.1 α experiment (D = 10 s) extended to a
// fuller sweep for the ablation study.
func AlphaSweep() ([]AlphaRow, error) {
	wifi, lte := LabConditions()[0].Traces()
	var rows []AlphaRow
	for _, a := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		res, err := harness.RunFileDownload(harness.FileConfig{
			WiFi: wifi, LTE: lte, SizeBytes: 5_000_000, Deadline: 10 * time.Second, Alpha: a,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlphaRow{
			Alpha: a, LTEMB: mb(res.LTEBytes), EnergyJ: res.RadioJ(),
			DurationSec: res.Duration.Seconds(), Missed: res.MissedBy > 0,
		})
	}
	return rows, nil
}

// ------------------------------------------------------- Tables 1 and 2

// Table1Row is one bandwidth profile of the trace simulation.
type Table1Row struct {
	Name        string
	FileMB      int64
	AvgWiFiMbps float64
	AvgCellMbps float64
	Deadlines   []time.Duration
}

// table1Profile carries the generated traces alongside the row.
type table1Profile struct {
	Table1Row
	wifi, cell *trace.Trace
}

// table1Profiles builds the five Table 1 profiles: two synthetic and three
// field-trace sites (Fast Food B, Coffeehouse D, Office).
func table1Profiles() []table1Profile {
	slot := 50 * time.Millisecond
	const n = 4000
	secs := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Second
		}
		return out
	}
	fieldPair := func(name string) (*trace.Trace, *trace.Trace) {
		loc, ok := field.ByName(name)
		if !ok {
			panic("mpdash: missing field location " + name)
		}
		return loc.WiFiTrace(slot, n), loc.LTETrace(slot, n)
	}
	ffW, ffC := fieldPair("Fast Food B")
	coW, coC := fieldPair("Coffeehouse D")
	ofW, ofC := fieldPair("Office")
	ps := []table1Profile{
		{Table1Row{Name: "Synthetic (σ=10%)", FileMB: 5, AvgWiFiMbps: 3.8, AvgCellMbps: 3.0, Deadlines: secs(8, 9, 10)},
			trace.Synthetic("synth10-w", 3.8, 0.10, slot, n, 1001), trace.Synthetic("synth10-c", 3.0, 0.10, slot, n, 1002)},
		{Table1Row{Name: "Synthetic (σ=30%)", FileMB: 5, AvgWiFiMbps: 3.8, AvgCellMbps: 3.0, Deadlines: secs(8, 9, 10)},
			trace.Synthetic("synth30-w", 3.8, 0.30, slot, n, 1003), trace.Synthetic("synth30-c", 3.0, 0.30, slot, n, 1004)},
		{Table1Row{Name: "Fast Food B", FileMB: 20, AvgWiFiMbps: 5.2, AvgCellMbps: 8.1, Deadlines: secs(15, 20, 25, 30)}, ffW, ffC},
		{Table1Row{Name: "Coffeehouse D", FileMB: 5, AvgWiFiMbps: 1.4, AvgCellMbps: 7.6, Deadlines: secs(5, 10, 15, 20)}, coW, coC},
		{Table1Row{Name: "Office", FileMB: 50, AvgWiFiMbps: 28.4, AvgCellMbps: 19.1, Deadlines: secs(9, 12, 15, 18)}, ofW, ofC},
	}
	return ps
}

// Table1Profiles returns the Table 1 rows.
func Table1Profiles() []Table1Row {
	ps := table1Profiles()
	rows := make([]Table1Row, len(ps))
	for i, p := range ps {
		rows[i] = p.Table1Row
	}
	return rows
}

// Table2Row is one (profile, deadline) comparison of the online scheduler
// against the offline optimum.
type Table2Row struct {
	Trace       string
	DeadlineSec int
	OptimalPct  float64
	OnlinePct   float64
	DiffPct     float64
	Missed      bool
}

// Table2OnlineVsOptimal reproduces Table 2 via the slot-granularity
// trace simulation of Algorithm 1 + Holt-Winters.
func Table2OnlineVsOptimal() ([]Table2Row, error) {
	var rows []Table2Row
	for _, p := range table1Profiles() {
		for _, d := range p.Deadlines {
			cfg := core.SlotSimConfig{
				WiFiMbps: p.wifi.Mbps,
				CellMbps: p.cell.Mbps,
				Slot:     p.wifi.Slot,
				Size:     p.FileMB * 1_000_000,
				Deadline: d,
			}
			online, err := core.SimulateOnline(cfg)
			if err != nil {
				return nil, err
			}
			opt, _, err := core.SimulateOptimal(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Trace:       p.Name,
				DeadlineSec: int(d.Seconds()),
				OptimalPct:  opt * 100,
				OnlinePct:   online.CellularFrac * 100,
				DiffPct:     (online.CellularFrac - opt) * 100,
				Missed:      online.Missed,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Prediction reproduces Figure 5: a field bandwidth trace and its
// Holt-Winters one-step forecasts.
func Fig5Prediction(location string, seconds int) (*SeriesSet, error) {
	loc, ok := field.ByName(location)
	if !ok {
		return nil, fmt.Errorf("mpdash: unknown location %q", location)
	}
	slot := 50 * time.Millisecond
	n := seconds * 20
	tr := loc.WiFiTrace(slot, n)
	hw := predict.NewDefaultHoltWinters()
	preds := make([]float64, n)
	for i, v := range tr.Mbps {
		preds[i] = hw.Predict()
		hw.Observe(v)
	}
	return &SeriesSet{
		Window: slot,
		Names:  []string{location, location + "-HW"},
		Series: [][]float64{tr.Mbps, preds},
	}, nil
}

// ------------------------------------------------------ Table 4 / Fig. 6

// Table4Row compares cellular throttling against MP-DASH.
type Table4Row struct {
	Config     string
	CellMB     float64
	CellPct    float64
	EnergyJ    float64
	AvgBitrate float64
}

// table4Config is one Table 4 arm with the GPAC player.
func table4Config(scheme harness.Scheme, throttle float64, chunks int) harness.SessionConfig {
	wifi, lte := LabConditions()[0].Traces()
	return harness.SessionConfig{
		WiFi: wifi, LTE: lte,
		Algorithm: harness.GPAC, Scheme: scheme, ThrottleMbps: throttle, Chunks: chunks,
	}
}

// Table4Throttling reproduces Table 4: default MPTCP, 700 kbps and 1 Mbps
// cellular throttling, and MP-DASH (rate-based), all under GPAC.
func Table4Throttling(chunks int) ([]Table4Row, error) {
	names := []string{"Default", "700 K", "1000 K", "MP-DASH"}
	results, err := harness.RunSessions([]harness.SessionConfig{
		table4Config(harness.Baseline, 0, chunks),
		table4Config(harness.ThrottleLTE, 0.7, chunks),
		table4Config(harness.ThrottleLTE, 1.0, chunks),
		table4Config(harness.MPDashRate, 0, chunks),
	})
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for i, res := range results {
		total := res.Report.TotalBytes()
		pct := 0.0
		if total > 0 {
			pct = float64(res.LTEBytes()) / float64(total) * 100
		}
		rows = append(rows, Table4Row{
			Config:     names[i],
			CellMB:     mb(res.LTEBytes()),
			CellPct:    pct,
			EnergyJ:    res.RadioJ(),
			AvgBitrate: res.Report.SteadyStateAvgBitrateMbps,
		})
	}
	return rows, nil
}

// Fig6TrafficPatterns reproduces Figure 6: LTE traffic series under
// 700 kbps throttling, MP-DASH, and default MPTCP.
func Fig6TrafficPatterns(chunks int) (*SeriesSet, error) {
	results, err := harness.RunSessions([]harness.SessionConfig{
		table4Config(harness.ThrottleLTE, 0.7, chunks),
		table4Config(harness.MPDashRate, 0, chunks),
		table4Config(harness.Baseline, 0, chunks),
	})
	if err != nil {
		return nil, err
	}
	var series [][]float64
	for _, res := range results {
		series = append(series, res.LTESeries)
	}
	names := []string{"throttle-700k", "mp-dash", "default"}
	return &SeriesSet{Window: mptcp.DefaultMeterWindow, Names: names, Series: series}, nil
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Row is one bar/dot pair of Figure 7.
type Fig7Row struct {
	Condition  string
	Algorithm  string
	Scheme     string // Baseline / Duration / Rate
	LTEMB      float64
	EnergyJ    float64
	AvgBitrate float64
	Stalls     int
}

// Fig7ResourceSavings reproduces Figure 7 (a,b,c): FESTIVE, BBA, BBA-C
// under the three §7.3.2 network conditions × {baseline, duration-based,
// rate-based}.
func Fig7ResourceSavings(chunks int) ([]Fig7Row, error) {
	arms := []struct {
		name   string
		scheme harness.Scheme
	}{
		{"Baseline", harness.Baseline},
		{"Duration", harness.MPDashDuration},
		{"Rate", harness.MPDashRate},
	}
	var rows []Fig7Row
	var cfgs []harness.SessionConfig
	for _, cond := range LabConditions() {
		wifi, lte := cond.Traces()
		for _, algo := range []harness.Algorithm{harness.FESTIVE, harness.BBA, harness.BBAC} {
			for _, arm := range arms {
				rows = append(rows, Fig7Row{Condition: cond.Name, Algorithm: string(algo), Scheme: arm.name})
				cfgs = append(cfgs, harness.SessionConfig{
					WiFi: wifi, LTE: lte, Algorithm: algo, Scheme: arm.scheme, Chunks: chunks,
				})
			}
		}
	}
	results, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].LTEMB = mb(res.LTEBytes())
		rows[i].EnergyJ = res.RadioJ()
		rows[i].AvgBitrate = res.Report.SteadyStateAvgBitrateMbps
		rows[i].Stalls = res.Report.Stalls
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Visualization reproduces Figure 8: the analysis tool's chunk-bar
// rendering for default MPTCP, MP-DASH rate-based, and MP-DASH
// duration-based under FESTIVE. It returns ASCII renderings and SVGs.
func Fig8Visualization(chunks int) (ascii []string, svg [][]byte, err error) {
	wifi, lte := LabConditions()[0].Traces()
	var cfgs []harness.SessionConfig
	for _, scheme := range []harness.Scheme{harness.Baseline, harness.MPDashRate, harness.MPDashDuration} {
		cfgs = append(cfgs, harness.SessionConfig{
			WiFi: wifi, LTE: lte, Algorithm: harness.FESTIVE, Scheme: scheme, Chunks: chunks,
		})
	}
	results, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, nil, err
	}
	for _, res := range results {
		ascii = append(ascii, fmt.Sprintf("--- %s ---\n%s", res.Config.Scheme, analysis.RenderChunksASCII(res.Report, "lte", 2)))
		svg = append(svg, analysis.RenderChunksSVG(res.Report, "lte"))
	}
	return ascii, svg, nil
}

// ----------------------------------------------- Figures 9/10, Table 5

// FieldStudySummary carries everything §7.3.3 reports.
type FieldStudySummary struct {
	Study *field.StudyResult
	// SavingsPercentiles are the pooled 25th/50th/75th cellular-saving
	// percentiles (paper: 48% / 59% / 82%).
	SavingsPercentiles [3]float64
	// EnergyPercentiles are the pooled radio-energy-saving percentiles
	// (paper: 7.7% / 17% / 53%).
	EnergyPercentiles [3]float64
	// NoBitrateReductionFrac is the fraction of experiments with zero or
	// negative bitrate reduction (paper: 82.65%).
	NoBitrateReductionFrac float64
}

// RunFieldStudySummary runs the 33-location study and pools the metrics.
func RunFieldStudySummary(chunks int) (*FieldStudySummary, error) {
	study, err := field.RunStudy(field.StudyConfig{Chunks: chunks})
	if err != nil {
		return nil, err
	}
	s := &FieldStudySummary{Study: study}
	all := study.AllSavings()
	for i, p := range []float64{25, 50, 75} {
		v, err := stats.Percentile(all, p)
		if err != nil {
			return nil, err
		}
		s.SavingsPercentiles[i] = v
	}
	en := study.AllEnergySavings()
	for i, p := range []float64{25, 50, 75} {
		v, err := stats.Percentile(en, p)
		if err != nil {
			return nil, err
		}
		s.EnergyPercentiles[i] = v
	}
	br := study.AllBitrateReductions()
	s.NoBitrateReductionFrac = stats.FractionAtMost(br, 0.005)
	return s, nil
}

// Table5Row is one representative location's savings.
type Table5Row struct {
	Location    string
	WiFiMbps    float64
	LTEMbps     float64
	FESTIVERate float64 // cellular savings, %
	FESTIVEDur  float64
	BBARate     float64
	BBADur      float64
	// Energy savings, %.
	FESTIVERateEnergy float64
	BBARateEnergy     float64
}

// Table5Names are the paper's seven representative locations, in its
// order (ascending WiFi bandwidth).
var Table5Names = []string{
	"Hotel Hi", "Hotel Ha", "Food Market", "Airport", "Coffeehouse", "Library", "Elec. Store",
}

// Table5Representative reproduces Table 5's rows from a study result.
func Table5Representative(study *field.StudyResult) ([]Table5Row, error) {
	var rows []Table5Row
	for _, name := range Table5Names {
		o := study.Outcome(name)
		if o == nil {
			return nil, fmt.Errorf("mpdash: study lacks location %q", name)
		}
		rows = append(rows, Table5Row{
			Location:          name,
			WiFiMbps:          o.Location.WiFiMbps,
			LTEMbps:           o.Location.LTEMbps,
			FESTIVERate:       o.CellularSaving(field.FESTIVERate) * 100,
			FESTIVEDur:        o.CellularSaving(field.FESTIVEDur) * 100,
			BBARate:           o.CellularSaving(field.BBARate) * 100,
			BBADur:            o.CellularSaving(field.BBADur) * 100,
			FESTIVERateEnergy: o.EnergySaving(field.FESTIVERate) * 100,
			BBARateEnergy:     o.EnergySaving(field.BBARate) * 100,
		})
	}
	return rows, nil
}

// --------------------------------------------------------------- Fig. 11

// Fig11Mobility reproduces Figure 11: walking around an AP (sawtooth WiFi
// ≈5 Mbps, LTE 5 Mbps) under MP-DASH, default MPTCP, and WiFi-only, with
// FESTIVE rate adaptation. It returns the three LTE+WiFi series sets and
// the savings of MP-DASH versus default.
type Fig11Result struct {
	MPDash, Default, WiFiOnly *SeriesSet
	CellularSavingPct         float64
	EnergySavingPct           float64
	MPDashStalls, WiFiStalls  int
}

// Fig11MobilityExperiment runs the mobility scenario.
func Fig11MobilityExperiment(chunks int) (*Fig11Result, error) {
	slot := 100 * time.Millisecond
	wifi := trace.Mobility("walk-wifi", 5.0, 60*time.Second, slot, 12000, 4242)
	lte := trace.Constant("lte", 5.0, time.Second, 1)
	var cfgs []harness.SessionConfig
	for _, scheme := range []harness.Scheme{harness.MPDashRate, harness.Baseline, harness.WiFiOnly} {
		cfgs = append(cfgs, harness.SessionConfig{
			WiFi: wifi, LTE: lte, Algorithm: harness.FESTIVE, Scheme: scheme, Chunks: chunks,
		})
	}
	results, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, err
	}
	mp, def, wo := results[0], results[1], results[2]
	set := func(r *harness.SessionResult) *SeriesSet {
		return &SeriesSet{
			Window: r.MeterWindow,
			Names:  []string{"WiFi", "LTE"},
			Series: [][]float64{r.WiFiSeries, r.LTESeries},
		}
	}
	out := &Fig11Result{
		MPDash: set(mp), Default: set(def), WiFiOnly: set(wo),
		MPDashStalls: mp.Report.Stalls, WiFiStalls: wo.Report.Stalls,
	}
	if def.LTEBytes() > 0 {
		out.CellularSavingPct = (1 - float64(mp.LTEBytes())/float64(def.LTEBytes())) * 100
	}
	if def.RadioJ() > 0 {
		out.EnergySavingPct = (1 - mp.RadioJ()/def.RadioJ()) * 100
	}
	return out, nil
}

// --------------------------------------------------------------- Table 6

// Table6Row is one HD-video arm.
type Table6Row struct {
	Algorithm         string
	BitrateChangePct  float64 // positive = MP-DASH played higher
	CellularSavingPct float64
	EnergySavingPct   float64
	Stalls            int
}

// Table6HDVideo reproduces §7.3.5: Tears of Steel HD (10 Mbps top rung) at
// a supermarket-like site where even WiFi+LTE cannot reach the top rung,
// comparing FESTIVE and BBA-C with rate-based MP-DASH against vanilla
// MPTCP.
func Table6HDVideo(chunks int) ([]Table6Row, error) {
	slot := 100 * time.Millisecond
	wifi := trace.Field("supermarket-wifi", 4.6, 0.55, slot, 12000, 5150)
	lte := trace.Field("supermarket-lte", 3.9, 0.9, slot, 12000, 5151)
	video := dash.TearsOfSteelHD()
	var cfgs []harness.SessionConfig
	for _, algo := range []harness.Algorithm{harness.FESTIVE, harness.BBAC} {
		for _, scheme := range []harness.Scheme{harness.Baseline, harness.MPDashRate} {
			cfgs = append(cfgs, harness.SessionConfig{
				WiFi: wifi, LTE: lte, Video: video, Algorithm: algo, Scheme: scheme, Chunks: chunks,
			})
		}
	}
	results, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for i := 0; i < len(results); i += 2 {
		base, mp := results[i], results[i+1]
		row := Table6Row{Algorithm: string(base.Config.Algorithm), Stalls: mp.Report.Stalls}
		if b := base.Report.SteadyStateAvgBitrateMbps; b > 0 {
			row.BitrateChangePct = (mp.Report.SteadyStateAvgBitrateMbps/b - 1) * 100
		}
		if base.LTEBytes() > 0 {
			row.CellularSavingPct = (1 - float64(mp.LTEBytes())/float64(base.LTEBytes())) * 100
		}
		if base.RadioJ() > 0 {
			row.EnergySavingPct = (1 - mp.RadioJ()/base.RadioJ()) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ------------------------------------------------------------- Ablations

// AblationRow is one ablation arm.
type AblationRow struct {
	Name    string
	LTEMB   float64
	EnergyJ float64
	Stalls  int
	Missed  int64
}

// AblationPhiOmega measures the contribution of the deadline-extension
// (Φ) and low-buffer-guard (Ω) mechanisms (DESIGN.md §5).
func AblationPhiOmega(chunks int) ([]AblationRow, error) {
	wifi, lte := LabConditions()[0].Traces()
	arms := []struct {
		name                  string
		disableExt, disableLB bool
	}{
		{"full", false, false},
		{"no-extension", true, false},
		{"no-low-buffer-guard", false, true},
		{"neither", true, true},
	}
	cfgs := make([]harness.SessionConfig, len(arms))
	for i, arm := range arms {
		cfgs[i] = harness.SessionConfig{
			WiFi: wifi, LTE: lte,
			Algorithm: harness.FESTIVE, Scheme: harness.MPDashRate, Chunks: chunks,
			DisableExtension:      arm.disableExt,
			DisableLowBufferGuard: arm.disableLB,
		}
	}
	results, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, res := range results {
		rows = append(rows, AblationRow{
			Name:    arms[i].name,
			LTEMB:   mb(res.LTEBytes()),
			EnergyJ: res.RadioJ(),
			Stalls:  res.Report.Stalls,
			Missed:  res.DeadlineMisses,
		})
	}
	return rows, nil
}

// PredictorRow is one predictor's Table 2-style outcome.
type PredictorRow struct {
	Predictor string
	Trace     string
	OnlinePct float64
	Missed    bool
}

// AblationPredictor compares Holt-Winters against EWMA and last-sample in
// the slot simulation on the field profiles.
func AblationPredictor() ([]PredictorRow, error) {
	var rows []PredictorRow
	preds := []struct {
		name string
		mk   func() predict.Predictor
	}{
		{"holt-winters", func() predict.Predictor { return predict.NewDefaultHoltWinters() }},
		{"ewma", func() predict.Predictor { return predict.NewEWMA(0.5) }},
		{"last-sample", func() predict.Predictor { return predict.NewLastSample() }},
	}
	for _, p := range table1Profiles() {
		d := p.Deadlines[len(p.Deadlines)/2]
		for _, pr := range preds {
			cfg := core.SlotSimConfig{
				WiFiMbps: p.wifi.Mbps, CellMbps: p.cell.Mbps, Slot: p.wifi.Slot,
				Size: p.FileMB * 1_000_000, Deadline: d, Predictor: pr.mk(),
			}
			res, err := core.SimulateOnline(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PredictorRow{
				Predictor: pr.name, Trace: p.Name,
				OnlinePct: res.CellularFrac * 100, Missed: res.Missed,
			})
		}
	}
	return rows, nil
}
