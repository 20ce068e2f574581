package netmp

// Fault injection: a deterministic, seedable FaultPlan lets a ChunkServer
// misbehave on purpose — connection resets, mid-body stalls, premature
// closes, corrupted payload bytes, and blackout windows — so the path
// supervisor is testable without real radios. Faults apply to chunk
// (range) requests; the manifest bootstrap is left clean.

import (
	"fmt"
	"strings"
	"time"
)

// FaultKind enumerates the injectable per-request faults.
type FaultKind int

const (
	FaultNone FaultKind = iota
	// FaultReset hard-closes (RST) the connection before responding.
	FaultReset
	// FaultStall freezes mid-body for the plan's StallFor.
	FaultStall
	// FaultClose advertises the full Content-Length but closes cleanly
	// after sending roughly half the body (premature EOF).
	FaultClose
	// FaultCorrupt flips a run of payload bytes, detectable by the
	// client's byte-for-byte verification.
	FaultCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultReset:
		return "reset"
	case FaultStall:
		return "stall"
	case FaultClose:
		return "premature-close"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Blackout is a wall-clock window, relative to server start, during
// which every chunk request is reset — the real-radio "WiFi blackout".
// Redials still connect (the listener stays up); use ChunkServer.Crash
// for path death.
type Blackout struct {
	From, To time.Duration
}

// FaultPlan scripts faults into a ChunkServer. Scripted entries take
// precedence over probability draws; probability draws are made from a
// generator seeded with Seed, so a given plan replays the same fault
// sequence for the same request order.
type FaultPlan struct {
	// Seed seeds the probability generator (0 = 1).
	Seed int64
	// Per-request fault probabilities, evaluated in this order: first
	// match wins.
	ResetProb   float64
	StallProb   float64
	CloseProb   float64
	CorruptProb float64
	// StallFor is the duration of injected stalls (default 2s).
	StallFor time.Duration
	// Script maps a 1-based chunk-request ordinal to a fault, overriding
	// the probabilities for that request.
	Script map[int]FaultKind
	// Blackouts are windows during which every chunk request is reset.
	Blackouts []Blackout
	// Levels restricts faults to requests for these zero-based level
	// indices (nil = every level). Lets a test break the high rungs
	// while the lowest-level lifeline stays clean.
	Levels []int
}

// appliesTo reports whether the plan faults requests for level.
func (p *FaultPlan) appliesTo(level int) bool {
	if len(p.Levels) == 0 {
		return true
	}
	for _, l := range p.Levels {
		if l == level {
			return true
		}
	}
	return false
}

// stallFor returns the plan's stall duration with its default applied.
func (p *FaultPlan) stallFor() time.Duration {
	if p.StallFor <= 0 {
		return 2 * time.Second
	}
	return p.StallFor
}

// FaultStats counts faults a server actually injected.
type FaultStats struct {
	Resets          int64
	Stalls          int64
	PrematureCloses int64
	Corruptions     int64
	BlackoutResets  int64
}

// Total sums every injected fault.
func (fs FaultStats) Total() int64 {
	return fs.Resets + fs.Stalls + fs.PrematureCloses + fs.Corruptions + fs.BlackoutResets
}

func (fs FaultStats) String() string {
	return fmt.Sprintf("resets=%d stalls=%d closes=%d corruptions=%d blackout-resets=%d",
		fs.Resets, fs.Stalls, fs.PrematureCloses, fs.Corruptions, fs.BlackoutResets)
}

// ParseBlackouts parses a comma-separated list of "start:duration"
// windows, e.g. "8s:3s,40s:5s".
func ParseBlackouts(s string) ([]Blackout, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Blackout
	for _, part := range strings.Split(s, ",") {
		at, dur, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("netmp: blackout %q: want start:duration", part)
		}
		from, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("netmp: blackout start %q: %w", at, err)
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return nil, fmt.Errorf("netmp: blackout duration %q: %w", dur, err)
		}
		if from < 0 || d <= 0 {
			return nil, fmt.Errorf("netmp: blackout %q: negative start or non-positive duration", part)
		}
		out = append(out, Blackout{From: from, To: from + d})
	}
	return out, nil
}
