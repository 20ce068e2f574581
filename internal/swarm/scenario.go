// Package swarm is the many-session load-generation and scale-evaluation
// subsystem: it launches and supervises populations of concurrent MP-DASH
// client sessions — real sockets against a shared netmp.ChunkServer tier —
// from a declarative Scenario, and aggregates the per-session results into
// population QoE (startup delay, rebuffer ratio, deadline-miss rate,
// cellular-byte share, resilience counters).
//
// A Scenario declares an open-loop arrival process (uniform, Poisson,
// ramp, spike), a Zipf-popular multi-rendition catalog, and a weighted set
// of session profiles (ABR choice, path preference, video length). Every
// random draw — arrival times, content choice, profile choice,
// per-session retry jitter — descends from the scenario's single Seed, so
// any population run is exactly reproducible.
//
// Sessions run inside a bounded worker pool with per-session timeouts and
// panic isolation: one sick session is counted and dropped, never the run.
package swarm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"mpdash/internal/dash"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("750ms") and unmarshals from either a string or raw nanoseconds.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1.5s"-style strings or bare nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("swarm: duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("swarm: duration %s: want a string or nanoseconds", b)
	}
	*d = Duration(n)
	return nil
}

// ArrivalKind names an arrival process.
type ArrivalKind string

const (
	// ArrivalUniform spaces sessions evenly across the window.
	ArrivalUniform ArrivalKind = "uniform"
	// ArrivalPoisson draws exponential inter-arrivals at rate N/window —
	// the open-loop memoryless process of independent viewers.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalRamp increases the arrival rate linearly across the window
	// (density ∝ t), emulating an audience building toward an event.
	ArrivalRamp ArrivalKind = "ramp"
	// ArrivalSpike puts 80% of the sessions in a burst one tenth of the
	// window wide at mid-window, over a 20% uniform background — the
	// flash-crowd shape.
	ArrivalSpike ArrivalKind = "spike"
)

// Arrival declares the session arrival process.
type Arrival struct {
	Kind ArrivalKind `json:"kind"`
	// Over is the window across which sessions arrive (default 10s).
	Over Duration `json:"over"`
}

// CatalogItem is one video of the scenario catalog. Zipf popularity ranks
// items in listed order: the first item is the most popular.
type CatalogItem struct {
	Name string `json:"name"`
	// ChunkMs is the chunk playout duration in milliseconds.
	ChunkMs int `json:"chunk_ms"`
	// Chunks is the video length in chunks.
	Chunks int `json:"chunks"`
	// LevelsMbps is the encoding ladder, ascending.
	LevelsMbps []float64 `json:"levels_mbps"`
}

// video materializes the catalog item as a dash.Video. SizeSeed is
// derived from the rank so renditions differ between items.
func (c CatalogItem) video(rank int) *dash.Video {
	levels := make([]dash.Level, len(c.LevelsMbps))
	for i, r := range c.LevelsMbps {
		levels[i] = dash.Level{ID: i + 1, AvgBitrateMbps: r}
	}
	return &dash.Video{
		Name:          c.Name,
		ChunkDuration: time.Duration(c.ChunkMs) * time.Millisecond,
		NumChunks:     c.Chunks,
		SizeSeed:      uint64(rank)*0x9e3779b97f4a7c15 + 11,
		Levels:        levels,
	}
}

// Profile is one weighted session archetype. Zero fields inherit the
// defaults documented per field.
type Profile struct {
	Name string `json:"name"`
	// Weight is the profile's sampling weight (default 1).
	Weight float64 `json:"weight"`
	// ABR selects the rate-adaptation algorithm: gpac (default), bba,
	// bbac, festive, mpc, fastmpc, svaa.
	ABR string `json:"abr,omitempty"`
	// Preference is the preferred (primary) path: "wifi" (default) or
	// "lte". Cellular-byte accounting follows the LTE path either way.
	Preference string `json:"preference,omitempty"`
	// Chunks caps the session length (0 = whole video).
	Chunks int `json:"chunks,omitempty"`
}

// FaultSpec is the per-request fault mix applied to every server of the
// tier (see netmp.FaultPlan; the scenario Seed derives the draw seeds).
type FaultSpec struct {
	ResetProb   float64 `json:"reset_prob,omitempty"`
	StallProb   float64 `json:"stall_prob,omitempty"`
	CloseProb   float64 `json:"close_prob,omitempty"`
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	StallForMs  int     `json:"stall_for_ms,omitempty"`
}

// validate checks that every probability of the mix is in [0, 1]: the
// one check for the base mix and for every fault surge.
func (f *FaultSpec) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"reset_prob", f.ResetProb}, {"stall_prob", f.StallProb},
		{"close_prob", f.CloseProb}, {"corrupt_prob", f.CorruptProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s %g (want [0,1])", p.name, p.v)
		}
	}
	return nil
}

// AbortSpec enables doomed-chunk abort (netmp.AbortPolicy) for every
// session of the run. Zero fields inherit the netmp defaults.
type AbortSpec struct {
	// Factor scales the doom test (default 1; above 1 aborts later).
	Factor float64 `json:"factor,omitempty"`
	// MinProgress is the fraction of the deadline window that must
	// elapse before the first doom evaluation (default 0.25).
	MinProgress float64 `json:"min_progress,omitempty"`
}

// CacheSpec puts a shared edge-cache tier between the sessions and the
// origins: one singleflight-collapsing edge per video group and path,
// every edge backed by a single sharded chunk store, so a chunk filled
// through any edge is a hit for all of them. Sessions
// then stream from the edges — the servers' rates (servers.wifi_mbps /
// lte_mbps) shape the edges' client-facing downlinks — while the
// origins behind them run at the backhaul rate (origin_mbps).
type CacheSpec struct {
	// CapacityMB is the shared store's capacity in MiB (default 64). The
	// store keeps cache.Config's other defaults: default shards, every
	// level admitted on its first fill.
	CapacityMB int `json:"capacity_mb,omitempty"`
	// FillFetchers bounds each edge's concurrent distinct-chunk origin
	// fills (0 = netmp default).
	FillFetchers int `json:"fill_fetchers,omitempty"`
	// OriginMbps shapes each origin behind the edges — the backhaul a
	// miss fill crosses (0 = unshaped).
	OriginMbps float64 `json:"origin_mbps,omitempty"`
}

// withDefaults returns the defaulted spec (nil-safe, like
// RecoverySpec.withDefaults: the scenario keeps the pointer untouched).
func (c *CacheSpec) withDefaults() CacheSpec {
	var out CacheSpec
	if c != nil {
		out = *c
	}
	if out.CapacityMB <= 0 {
		out.CapacityMB = 64
	}
	return out
}

// Servers declares the shared origin tier.
type Servers struct {
	// WiFiMbps / LTEMbps shape each origin of the default link class
	// (0 = unshaped).
	WiFiMbps float64 `json:"wifi_mbps,omitempty"`
	LTEMbps  float64 `json:"lte_mbps,omitempty"`
	// WiFiOrigins / LTEOrigins is the ranked origin count per path per
	// group (default 1; >1 enables failover and hedging).
	WiFiOrigins int `json:"wifi_origins,omitempty"`
	LTEOrigins  int `json:"lte_origins,omitempty"`
	// MaxConns / MaxRequestsPerConn are per-origin overload limits
	// (0 = unlimited).
	MaxConns           int `json:"max_conns,omitempty"`
	MaxRequestsPerConn int `json:"max_requests_per_conn,omitempty"`
	// Faults injects the chaos plan into every origin.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// Scenario declares one population run.
type Scenario struct {
	Name     string  `json:"name,omitempty"`
	Sessions int     `json:"sessions"`
	Arrival  Arrival `json:"arrival"`
	// MaxActive bounds the worker pool: sessions arriving beyond it
	// queue (their wait is measured) rather than launching. Default:
	// unbounded (= Sessions).
	MaxActive int `json:"max_active,omitempty"`
	// SessionTimeout stops a session that overstays (graceful Stop, then
	// a hard fetcher teardown). Default: 2× the longest catalog video's
	// playout plus 30s.
	SessionTimeout Duration `json:"session_timeout,omitempty"`
	// Seed is the master RNG seed; every draw in the run descends from
	// it (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// ZipfS is the content-popularity exponent (default 1.0).
	ZipfS    float64       `json:"zipf_s,omitempty"`
	Catalog  []CatalogItem `json:"catalog,omitempty"`
	Profiles []Profile     `json:"profiles,omitempty"`
	Servers  Servers       `json:"servers,omitempty"`
	// Cache fronts the origins with a shared edge-cache tier (nil =
	// sessions stream straight from the origins). Chaos capacity and
	// fault events keep targeting the origins — with a cache they model
	// backhaul trouble, which sessions only feel on misses.
	Cache *CacheSpec `json:"cache,omitempty"`
	// Abort enables doomed-chunk abort for every session (nil = off).
	Abort *AbortSpec `json:"abort,omitempty"`
	// Board shares one congestion board across the run's sessions,
	// keyed per origin group: predictors seed from neighbors and a
	// capacity drop seen by one session pre-arms the rest.
	Board bool `json:"board,omitempty"`
	// Chaos is the ordered timeline of scheduled tier mutations —
	// capacity drops/restores, fault surges/clears, path blackouts/
	// heals, origin crashes/restarts — executed mid-run.
	Chaos []ChaosEvent `json:"chaos,omitempty"`
	// Recovery tunes the rolling-window detector that dates each chaos
	// event's recovery (MTTR); nil = defaults (1s window, 0.10 miss
	// threshold, 5 chunks minimum).
	Recovery *RecoverySpec `json:"recovery,omitempty"`
	// Gates is the run's pass bar, checked against its report (nil = the
	// run is judged on ledger violations, panics and audit only).
	Gates *Gates `json:"gates,omitempty"`
}

// DefaultCatalog is a scaled-down four-item analogue of the paper's test
// videos (Table 3): short chunks so population runs finish in seconds.
func DefaultCatalog() []CatalogItem {
	return []CatalogItem{
		{Name: "bbb-mini", ChunkMs: 300, Chunks: 12, LevelsMbps: []float64{0.3, 0.6, 1.2}},
		{Name: "rbps-mini", ChunkMs: 300, Chunks: 16, LevelsMbps: []float64{0.25, 0.5, 1.0, 2.0}},
		{Name: "tos-mini", ChunkMs: 200, Chunks: 20, LevelsMbps: []float64{0.3, 0.6, 1.2}},
		{Name: "toshd-mini", ChunkMs: 300, Chunks: 10, LevelsMbps: []float64{0.5, 1.0, 2.0, 4.0}},
	}
}

// DefaultProfiles is the default heterogeneous session mix.
func DefaultProfiles() []Profile {
	return []Profile{
		{Name: "wifi-gpac", Weight: 0.5, ABR: "gpac"},
		{Name: "wifi-bba", Weight: 0.25, ABR: "bba"},
		{Name: "lte-first", Weight: 0.15, ABR: "gpac", Preference: "lte"},
		{Name: "festive-short", Weight: 0.10, ABR: "festive", Chunks: 6},
	}
}

// withDefaults returns a defaulted copy of the scenario.
func (s Scenario) withDefaults() Scenario {
	if s.Arrival.Kind == "" {
		s.Arrival.Kind = ArrivalPoisson
	}
	if s.Arrival.Over <= 0 {
		s.Arrival.Over = Duration(10 * time.Second)
	}
	if s.MaxActive <= 0 {
		s.MaxActive = s.Sessions
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.ZipfS <= 0 {
		s.ZipfS = 1.0
	}
	if len(s.Catalog) == 0 {
		s.Catalog = DefaultCatalog()
	}
	if len(s.Profiles) == 0 {
		s.Profiles = DefaultProfiles()
	}
	if s.Servers.WiFiOrigins <= 0 {
		s.Servers.WiFiOrigins = 1
	}
	if s.Servers.LTEOrigins <= 0 {
		s.Servers.LTEOrigins = 1
	}
	if s.SessionTimeout <= 0 {
		var longest time.Duration
		for _, c := range s.Catalog {
			if d := time.Duration(c.ChunkMs) * time.Millisecond * time.Duration(c.Chunks); d > longest {
				longest = d
			}
		}
		s.SessionTimeout = Duration(2*longest + 30*time.Second)
	}
	return s
}

// Validate checks the scenario's structural invariants (after defaults).
func (s Scenario) Validate() error {
	if s.Sessions <= 0 {
		return fmt.Errorf("swarm: scenario needs sessions > 0, got %d", s.Sessions)
	}
	switch s.Arrival.Kind {
	case ArrivalUniform, ArrivalPoisson, ArrivalRamp, ArrivalSpike:
	default:
		return fmt.Errorf("swarm: unknown arrival kind %q", s.Arrival.Kind)
	}
	for i, c := range s.Catalog {
		if c.ChunkMs <= 0 || c.Chunks <= 0 || len(c.LevelsMbps) == 0 {
			return fmt.Errorf("swarm: catalog[%d] %q: need chunk_ms, chunks and levels_mbps", i, c.Name)
		}
		if err := c.video(i).Validate(); err != nil {
			return fmt.Errorf("swarm: catalog[%d]: %w", i, err)
		}
	}
	total := 0.0
	for i, p := range s.Profiles {
		if p.Weight < 0 {
			return fmt.Errorf("swarm: profile[%d] %q: negative weight", i, p.Name)
		}
		total += p.Weight
		if _, err := newABR(p.ABR, s.Catalog[0].video(0)); err != nil {
			return fmt.Errorf("swarm: profile[%d] %q: %w", i, p.Name, err)
		}
		switch p.Preference {
		case "", "wifi", "lte":
		default:
			return fmt.Errorf("swarm: profile[%d] %q: preference %q (want wifi or lte)", i, p.Name, p.Preference)
		}
	}
	if len(s.Profiles) > 0 && total <= 0 {
		return fmt.Errorf("swarm: profile weights sum to %g", total)
	}
	if c := s.Cache; c != nil {
		if c.CapacityMB < 0 || c.FillFetchers < 0 || c.OriginMbps < 0 {
			return fmt.Errorf("swarm: cache: negative field")
		}
	}
	if a := s.Abort; a != nil {
		if a.Factor < 0 || a.MinProgress < 0 || a.MinProgress > 1 {
			return fmt.Errorf("swarm: abort: factor %g, min_progress %g (want factor >= 0, min_progress in [0,1])", a.Factor, a.MinProgress)
		}
	}
	if f := s.Servers.Faults; f != nil {
		if err := f.validate(); err != nil {
			return fmt.Errorf("swarm: servers: faults: %w", err)
		}
	}
	if err := s.validateChaos(); err != nil {
		return err
	}
	if s.Gates != nil {
		return s.Gates.validate()
	}
	return nil
}

// LoadScenario reads and strictly decodes a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("swarm: scenario: %w", err)
	}
	s, err := decodeScenario(b)
	if err != nil {
		return nil, fmt.Errorf("swarm: scenario %s: %w", path, err)
	}
	return s, nil
}

func decodeScenario(b []byte) (*Scenario, error) {
	var s Scenario
	if err := decodeStrict(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeStrict decodes one JSON value into v strictly: an unknown key (a
// misspelled field would otherwise run with its default) or anything but
// white space after the value is an error.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
