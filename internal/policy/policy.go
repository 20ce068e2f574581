// Package policy implements the preference framework sketched in the
// paper (§3.3, §4): path preferences are quantified as per-path unit-data
// costs that may be static ("always prefer WiFi") or dynamic (data caps,
// battery level). A Manager periodically recomputes costs and pushes them
// into the multipath connection; the MP-DASH scheduler's generalized
// cost-sorted algorithm (internal/core) then feeds data from cheap to
// expensive paths. The paper leaves "a general policy framework" as
// future work (§6); this package is that extension.
package policy

import (
	"fmt"
	"time"

	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
)

// Policy computes a path's unit-data cost at a point in time.
type Policy interface {
	// Name identifies the policy in logs.
	Name() string
	// Cost returns the path's current unit-data cost (≥ 0; lower is
	// preferred). usedBytes is the path's cumulative delivered bytes.
	Cost(path string, usedBytes int64, now time.Duration) float64
}

// Static assigns fixed costs; unlisted paths get DefaultCost.
type Static struct {
	Costs       map[string]float64
	DefaultCost float64
}

// Name implements Policy.
func (s Static) Name() string { return "static" }

// Cost implements Policy.
func (s Static) Cost(path string, _ int64, _ time.Duration) float64 {
	if c, ok := s.Costs[path]; ok {
		return c
	}
	return s.DefaultCost
}

// DataCap raises a metered path's cost sharply as its usage approaches a
// byte quota — the "user wants to limit cellular data usage" preference
// made quantitative. Below SoftFrac of the cap the base cost applies;
// between SoftFrac and the cap the cost grows linearly to OverCost; past
// the cap it is OverCost.
type DataCap struct {
	// Path is the metered path this cap governs.
	Path string
	// CapBytes is the quota.
	CapBytes int64
	// BaseCost applies while usage is comfortably under the cap.
	BaseCost float64
	// OverCost applies at/over the cap (should exceed every other
	// path's cost so the scheduler uses the path only as a last resort).
	OverCost float64
	// SoftFrac is where the ramp starts (default 0.8).
	SoftFrac float64
	// Other is the cost for every other path.
	Other float64
}

// Name implements Policy.
func (d DataCap) Name() string { return "data-cap" }

// Cost implements Policy.
func (d DataCap) Cost(path string, used int64, _ time.Duration) float64 {
	if path != d.Path {
		return d.Other
	}
	if d.CapBytes <= 0 {
		return d.OverCost
	}
	soft := d.SoftFrac
	if soft <= 0 || soft >= 1 {
		soft = 0.8
	}
	frac := float64(used) / float64(d.CapBytes)
	switch {
	case frac <= soft:
		return d.BaseCost
	case frac >= 1:
		return d.OverCost
	default:
		ramp := (frac - soft) / (1 - soft)
		return d.BaseCost + ramp*(d.OverCost-d.BaseCost)
	}
}

// TimeOfDay applies one cost during a daily window (e.g. cheap off-peak
// cellular) and another outside it. Virtual time is interpreted as time
// since midnight for simulation purposes.
type TimeOfDay struct {
	Path         string
	WindowStart  time.Duration
	WindowEnd    time.Duration
	InWindow     float64
	OutOfWindow  float64
	OtherDefault float64
}

// Name implements Policy.
func (p TimeOfDay) Name() string { return "time-of-day" }

// Cost implements Policy.
func (p TimeOfDay) Cost(path string, _ int64, now time.Duration) float64 {
	if path != p.Path {
		return p.OtherDefault
	}
	day := now % (24 * time.Hour)
	if day >= p.WindowStart && day < p.WindowEnd {
		return p.InWindow
	}
	return p.OutOfWindow
}

// Battery raises the energy-hungry path's cost as the battery drains:
// below LowFrac of charge the path costs OverCost, above HighFrac it
// costs BaseCost, with a linear ramp between. The battery level is
// supplied by a callback so callers can wire a real gauge or a model.
type Battery struct {
	// Path is the energy-expensive path (cellular).
	Path string
	// Level returns the current charge fraction in [0, 1].
	Level func(now time.Duration) float64
	// HighFrac/LowFrac bound the ramp (defaults 0.5 / 0.2).
	HighFrac, LowFrac float64
	BaseCost          float64
	OverCost          float64
	Other             float64
}

// Name implements Policy.
func (p Battery) Name() string { return "battery" }

// Cost implements Policy.
func (p Battery) Cost(path string, _ int64, now time.Duration) float64 {
	if path != p.Path {
		return p.Other
	}
	if p.Level == nil {
		return p.BaseCost
	}
	high := p.HighFrac
	if high == 0 {
		high = 0.5
	}
	low := p.LowFrac
	if low == 0 {
		low = 0.2
	}
	lvl := p.Level(now)
	switch {
	case lvl >= high:
		return p.BaseCost
	case lvl <= low:
		return p.OverCost
	default:
		ramp := (high - lvl) / (high - low)
		return p.BaseCost + ramp*(p.OverCost-p.BaseCost)
	}
}

// Manager periodically re-evaluates a Policy and pushes the costs into
// the connection.
type Manager struct {
	sim    *sim.Simulator
	conn   *mptcp.Conn
	policy Policy
	// Interval defaults to one second.
	Interval time.Duration

	updates int64
	stopped bool
	tickFn  func() // m.onTick, bound once
}

// NewManager wires a policy to a connection and starts the update loop.
func NewManager(s *sim.Simulator, conn *mptcp.Conn, p Policy) (*Manager, error) {
	if s == nil || conn == nil || p == nil {
		return nil, fmt.Errorf("policy: nil simulator, connection or policy")
	}
	m := &Manager{sim: s, conn: conn, policy: p, Interval: time.Second}
	m.tickFn = m.onTick
	m.apply()
	m.tick()
	return m, nil
}

// Updates returns how many cost pushes have happened.
func (m *Manager) Updates() int64 { return m.updates }

// Stop halts the update loop.
func (m *Manager) Stop() { m.stopped = true }

func (m *Manager) tick() { m.sim.Schedule(m.Interval, m.tickFn) }

func (m *Manager) onTick() {
	if m.stopped {
		return
	}
	m.apply()
	m.tick()
}

func (m *Manager) apply() {
	now := m.sim.Now()
	for _, p := range m.conn.Paths() {
		cost := m.policy.Cost(p.Name, p.DeliveredBytes(), now)
		if cost < 0 {
			cost = 0
		}
		// Never touch the primary's preference: the user's chosen
		// interface stays cheapest by construction.
		if p.Primary {
			continue
		}
		_ = m.conn.SetPathCost(p.Name, cost)
	}
	m.updates++
}
