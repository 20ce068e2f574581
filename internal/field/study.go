package field

import (
	"fmt"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/harness"
	"mpdash/internal/stats"
	"mpdash/internal/trace"
)

// SchemeKey names one (algorithm, deadline policy) experiment arm the way
// the paper's Figures 9/10 label them.
type SchemeKey string

// The paper's four MP-DASH arms.
const (
	FESTIVERate SchemeKey = "FESTIVE-Rate"
	FESTIVEDur  SchemeKey = "FESTIVE-Dur"
	BBARate     SchemeKey = "BBA-Rate"
	BBADur      SchemeKey = "BBA-Dur"
)

// SchemeKeys lists the four arms in the paper's order.
func SchemeKeys() []SchemeKey { return []SchemeKey{FESTIVERate, FESTIVEDur, BBARate, BBADur} }

func (k SchemeKey) algorithm() harness.Algorithm {
	switch k {
	case FESTIVERate, FESTIVEDur:
		return harness.FESTIVE
	default:
		return harness.BBA
	}
}

func (k SchemeKey) scheme() harness.Scheme {
	switch k {
	case FESTIVERate, BBARate:
		return harness.MPDashRate
	default:
		return harness.MPDashDuration
	}
}

// StudyConfig parameterizes the field study.
type StudyConfig struct {
	// Locations defaults to the full 33-site catalogue.
	Locations []Location
	// Chunks per session; 0 plays the full video (150 chunks).
	Chunks int
	// Video defaults to Big Buck Bunny (the paper's field workload).
	Video *dash.Video
	// Slot is the bandwidth trace granularity (default 100 ms).
	Slot time.Duration
}

// LocationOutcome is one location's results across all arms.
type LocationOutcome struct {
	Location Location
	// Baselines per algorithm (vanilla MPTCP).
	Baseline map[harness.Algorithm]*harness.SessionResult
	// MPDash per arm.
	MPDash map[SchemeKey]*harness.SessionResult
}

// CellularSaving returns 1 − mpdashLTE/baselineLTE for the arm.
func (o *LocationOutcome) CellularSaving(k SchemeKey) float64 {
	base := o.Baseline[k.algorithm()]
	mp := o.MPDash[k]
	if base == nil || mp == nil || base.LTEBytes() == 0 {
		return 0
	}
	return 1 - float64(mp.LTEBytes())/float64(base.LTEBytes())
}

// EnergySaving returns 1 − mpdashJ/baselineJ for the arm.
func (o *LocationOutcome) EnergySaving(k SchemeKey) float64 {
	base := o.Baseline[k.algorithm()]
	mp := o.MPDash[k]
	if base == nil || mp == nil || base.RadioJ() == 0 {
		return 0
	}
	return 1 - mp.RadioJ()/base.RadioJ()
}

// BitrateReduction returns the playback-bitrate reduction fraction
// (negative values mean MP-DASH played at a higher bitrate, which §7.3.5
// observed for FESTIVE).
func (o *LocationOutcome) BitrateReduction(k SchemeKey) float64 {
	base := o.Baseline[k.algorithm()]
	mp := o.MPDash[k]
	if base == nil || mp == nil || base.Report.SteadyStateAvgBitrateMbps == 0 {
		return 0
	}
	return 1 - mp.Report.SteadyStateAvgBitrateMbps/base.Report.SteadyStateAvgBitrateMbps
}

// StudyResult aggregates the whole field study.
type StudyResult struct {
	Outcomes []*LocationOutcome
}

// SavingsCDF returns the empirical CDF of cellular savings for one arm
// (Fig. 9: one curve per arm).
func (r *StudyResult) SavingsCDF(k SchemeKey) []stats.CDFPoint {
	var xs []float64
	for _, o := range r.Outcomes {
		xs = append(xs, o.CellularSaving(k))
	}
	return stats.CDF(xs)
}

// BitrateReductionCDF returns the Fig. 10 CDF for one arm.
func (r *StudyResult) BitrateReductionCDF(k SchemeKey) []stats.CDFPoint {
	var xs []float64
	for _, o := range r.Outcomes {
		xs = append(xs, o.BitrateReduction(k))
	}
	return stats.CDF(xs)
}

// AllSavings pools cellular savings across every arm and location (the
// paper's "across all experiments" percentiles).
func (r *StudyResult) AllSavings() []float64 {
	var xs []float64
	for _, o := range r.Outcomes {
		for _, k := range SchemeKeys() {
			xs = append(xs, o.CellularSaving(k))
		}
	}
	return xs
}

// AllEnergySavings pools radio-energy savings across arms and locations.
func (r *StudyResult) AllEnergySavings() []float64 {
	var xs []float64
	for _, o := range r.Outcomes {
		for _, k := range SchemeKeys() {
			xs = append(xs, o.EnergySaving(k))
		}
	}
	return xs
}

// AllBitrateReductions pools bitrate reductions across arms and locations.
func (r *StudyResult) AllBitrateReductions() []float64 {
	var xs []float64
	for _, o := range r.Outcomes {
		for _, k := range SchemeKeys() {
			xs = append(xs, o.BitrateReduction(k))
		}
	}
	return xs
}

// Outcome returns the named location's outcome, or nil.
func (r *StudyResult) Outcome(name string) *LocationOutcome {
	for _, o := range r.Outcomes {
		if o.Location.Name == name {
			return o
		}
	}
	return nil
}

// RunStudy executes the experiment matrix: every location × arm goes
// into one harness.RunSessions batch, so the sessions spread over every
// core. Sessions are deterministic per location seed, so repeated studies
// agree bit-for-bit whatever GOMAXPROCS is.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	locs := cfg.Locations
	if locs == nil {
		locs = Locations()
	}
	slot := cfg.Slot
	if slot == 0 {
		slot = 100 * time.Millisecond
	}
	// Trace long enough for any session (sessions wrap if they outlive it).
	const traceSlots = 9000 // 15 min at 100 ms
	baselines := []harness.Algorithm{harness.FESTIVE, harness.BBA}
	keys := SchemeKeys()
	cfgs := make([]harness.SessionConfig, 0, len(locs)*(len(baselines)+len(keys)))
	for _, loc := range locs {
		wifi := loc.WiFiTrace(slot, traceSlots)
		lte := loc.LTETrace(slot, traceSlots)
		arm := func(algo harness.Algorithm, scheme harness.Scheme) harness.SessionConfig {
			return harness.SessionConfig{
				WiFi: wifi, LTE: lte,
				WiFiRTT: loc.WiFiRTT, LTERTT: loc.LTERTT,
				Video: cfg.Video, Algorithm: algo, Scheme: scheme, Chunks: cfg.Chunks,
			}
		}
		for _, algo := range baselines {
			cfgs = append(cfgs, arm(algo, harness.Baseline))
		}
		for _, k := range keys {
			cfgs = append(cfgs, arm(k.algorithm(), k.scheme()))
		}
	}
	rs, err := harness.RunSessions(cfgs)
	if err != nil {
		return nil, fmt.Errorf("field: %w", err)
	}
	res := &StudyResult{}
	for _, loc := range locs {
		out := &LocationOutcome{
			Location: loc,
			Baseline: map[harness.Algorithm]*harness.SessionResult{},
			MPDash:   map[SchemeKey]*harness.SessionResult{},
		}
		for _, algo := range baselines {
			out.Baseline[algo], rs = rs[0], rs[1:]
		}
		for _, k := range keys {
			out.MPDash[k], rs = rs[0], rs[1:]
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// wifiSupportsTop is a helper reused by tests and the tables tool: does
// this location's generated WiFi trace sustain the top non-HD bitrate at
// least frac of the time?
func wifiSupportsTop(tr *trace.Trace, frac float64) bool {
	n := 0
	for _, v := range tr.Mbps {
		if v >= topBitrateMbps {
			n++
		}
	}
	return float64(n) >= frac*float64(len(tr.Mbps))
}
