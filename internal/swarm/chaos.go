package swarm

import (
	"fmt"
	"sort"
)

// The chaos timeline: an ordered list of scheduled events executed
// against the shared server tier mid-run. Its events compose into
// correlated, time-phased failure stories (a capacity drop, an edge dying
// and coming back, a fault storm that passes, a path blacking out and
// healing) so population recovery (MTTR) can be measured, not just
// survival.

// ChaosKind names one scheduled tier mutation.
type ChaosKind string

const (
	// ChaosCapacityDrop rescales every shaped origin's rate by its link
	// class's factor (compounding if repeated).
	ChaosCapacityDrop ChaosKind = "capacity_drop"
	// ChaosCapacityRestore resets every shaped origin to its original
	// rate, undoing all prior drops.
	ChaosCapacityRestore ChaosKind = "capacity_restore"
	// ChaosFaultSurge replaces every origin's per-request fault
	// probabilities with the event's Faults mix.
	ChaosFaultSurge ChaosKind = "fault_surge"
	// ChaosFaultClear restores every origin's fault probabilities to the
	// scenario's base Servers.Faults (or zero when none).
	ChaosFaultClear ChaosKind = "fault_clear"
	// ChaosBlackout crashes every origin of the selected path class(es):
	// listeners close, admitted connections are reset. Recoverable via
	// ChaosHeal.
	ChaosBlackout ChaosKind = "blackout"
	// ChaosHeal restarts every origin a prior blackout crashed.
	ChaosHeal ChaosKind = "heal"
	// ChaosOriginCrash crashes the origin at rank Origin of the selected
	// path class(es) — the single-machine-loss event.
	ChaosOriginCrash ChaosKind = "origin_crash"
	// ChaosOriginRestart re-listens a crashed origin on its original
	// address, exercising breaker open → half-open → failback.
	ChaosOriginRestart ChaosKind = "origin_restart"
)

// ChaosEvent is one scheduled entry of the timeline. Fields beyond At
// and Kind apply only to the kinds that read them.
type ChaosEvent struct {
	// At is the event instant as an offset from run start.
	At   Duration  `json:"at"`
	Kind ChaosKind `json:"kind"`
	// WiFiFactor / LTEFactor multiply shaped rates on capacity_drop
	// (0 or 1 = that class unchanged).
	WiFiFactor float64 `json:"wifi_factor,omitempty"`
	LTEFactor  float64 `json:"lte_factor,omitempty"`
	// Faults is the surge's fault mix (fault_surge only; required there).
	Faults *FaultSpec `json:"faults,omitempty"`
	// Path selects the link class: "wifi", "lte", or "" for both.
	// Read by blackout/heal and origin_crash/origin_restart.
	Path string `json:"path,omitempty"`
	// Origin is the 0-based origin rank within each affected group's
	// class (-1 = every rank). Read by origin_crash/origin_restart.
	Origin int `json:"origin,omitempty"`
}

// RecoverySpec tunes the rolling-window recovery detector behind MTTR.
type RecoverySpec struct {
	// Window is the trailing miss-rate window (default 1s).
	Window Duration `json:"window,omitempty"`
	// MissThreshold is the deadline-miss rate at or under which the
	// population counts as recovered (default 0.10).
	MissThreshold float64 `json:"miss_threshold,omitempty"`
	// MinChunks is the minimum chunk completions the window must hold
	// before its miss rate is trusted (default 5).
	MinChunks int `json:"min_chunks,omitempty"`
}

// withDefaults fills the detector defaults (nil receiver = all defaults).
func (r *RecoverySpec) withDefaults() RecoverySpec {
	out := RecoverySpec{}
	if r != nil {
		out = *r
	}
	if out.Window <= 0 {
		out.Window = Duration(1e9) // 1s
	}
	if out.MissThreshold <= 0 {
		out.MissThreshold = 0.10
	}
	if out.MinChunks <= 0 {
		out.MinChunks = 5
	}
	return out
}

// chaosTimeline returns a copy of the declared chaos events sorted by At
// (stable: events at one instant run in declared order).
func (s *Scenario) chaosTimeline() []ChaosEvent {
	events := append([]ChaosEvent(nil), s.Chaos...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// crashTarget is one outstanding crash in the pairing simulation:
// a link class plus an origin rank (-1 = the whole class).
type crashTarget struct {
	class string
	rank  int
}

func (a crashTarget) overlaps(b crashTarget) bool {
	return a.class == b.class && (a.rank == -1 || b.rank == -1 || a.rank == b.rank)
}

// expandClasses resolves an event's Path to concrete link classes.
func expandClasses(path string) []string {
	if path == "" {
		return []string{"wifi", "lte"}
	}
	return []string{path}
}

// validateChaos checks every chaos event's fields and simulates the
// sorted timeline to reject unpaired or overlapping crash/restart
// stories (crashing an already-crashed origin, healing a path that is
// up) — mistakes that would otherwise surface as confusing mid-run
// Restart errors. Runs on the defaulted scenario.
func (s *Scenario) validateChaos() error {
	if r := s.Recovery; r != nil {
		if r.Window < 0 {
			return fmt.Errorf("swarm: recovery: window must be >= 0, got %v", r.Window.D())
		}
		if r.MissThreshold < 0 || r.MissThreshold > 1 {
			return fmt.Errorf("swarm: recovery: miss_threshold %g (want [0,1])", r.MissThreshold)
		}
		if r.MinChunks < 0 {
			return fmt.Errorf("swarm: recovery: min_chunks must be >= 0, got %d", r.MinChunks)
		}
	}
	horizon := s.Arrival.Over + s.SessionTimeout
	originsOf := func(class string) int {
		if class == "lte" {
			return s.Servers.LTEOrigins
		}
		return s.Servers.WiFiOrigins
	}
	for i, ev := range s.Chaos {
		if ev.At <= 0 {
			return fmt.Errorf("swarm: chaos[%d] %s: at must be > 0, got %v", i, ev.Kind, ev.At.D())
		}
		if horizon > 0 && ev.At > horizon {
			return fmt.Errorf("swarm: chaos[%d] %s: at %v is beyond the run horizon %v (arrival window + session timeout)",
				i, ev.Kind, ev.At.D(), horizon.D())
		}
		switch ev.Path {
		case "", "wifi", "lte":
		default:
			return fmt.Errorf("swarm: chaos[%d] %s: path %q (want wifi, lte or empty)", i, ev.Kind, ev.Path)
		}
		switch ev.Kind {
		case ChaosCapacityDrop:
			if ev.WiFiFactor < 0 || ev.WiFiFactor > 1 || ev.LTEFactor < 0 || ev.LTEFactor > 1 {
				return fmt.Errorf("swarm: chaos[%d] capacity_drop: factors must be in [0,1], got wifi %g lte %g",
					i, ev.WiFiFactor, ev.LTEFactor)
			}
		case ChaosCapacityRestore, ChaosFaultClear, ChaosBlackout, ChaosHeal:
		case ChaosFaultSurge:
			if ev.Faults == nil {
				return fmt.Errorf("swarm: chaos[%d] fault_surge: needs a faults mix", i)
			}
			if err := ev.Faults.validate(); err != nil {
				return fmt.Errorf("swarm: chaos[%d] fault_surge: %w", i, err)
			}
		case ChaosOriginCrash, ChaosOriginRestart:
			if ev.Origin < -1 {
				return fmt.Errorf("swarm: chaos[%d] %s: origin rank %d (want -1 for all, or a 0-based rank)", i, ev.Kind, ev.Origin)
			}
			for _, class := range expandClasses(ev.Path) {
				if n := originsOf(class); ev.Origin >= n {
					return fmt.Errorf("swarm: chaos[%d] %s: origin rank %d out of range (%s has %d origins)",
						i, ev.Kind, ev.Origin, class, n)
				}
			}
		default:
			return fmt.Errorf("swarm: chaos[%d]: unknown kind %q", i, ev.Kind)
		}
	}

	// Pairing simulation: walk the timeline in At order and track which
	// targets are down. Crashes must not overlap an outstanding crash;
	// restarts/heals must exactly match one.
	timeline := s.chaosTimeline()
	var down []crashTarget
	crash := func(ev ChaosEvent, tg crashTarget) error {
		for _, d := range down {
			if d.overlaps(tg) {
				return fmt.Errorf("swarm: chaos at %v: %s overlaps an outstanding crash of %s#%d (restart it first)",
					ev.At.D(), ev.Kind, d.class, d.rank)
			}
		}
		down = append(down, tg)
		return nil
	}
	restart := func(ev ChaosEvent, tg crashTarget) error {
		for i, d := range down {
			if d == tg {
				down = append(down[:i], down[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("swarm: chaos at %v: %s targets %s#%d which is not crashed at that point",
			ev.At.D(), ev.Kind, tg.class, tg.rank)
	}
	for _, ev := range timeline {
		switch ev.Kind {
		case ChaosBlackout:
			for _, class := range expandClasses(ev.Path) {
				if err := crash(ev, crashTarget{class, -1}); err != nil {
					return err
				}
			}
		case ChaosHeal:
			for _, class := range expandClasses(ev.Path) {
				if err := restart(ev, crashTarget{class, -1}); err != nil {
					return err
				}
			}
		case ChaosOriginCrash:
			for _, class := range expandClasses(ev.Path) {
				if err := crash(ev, crashTarget{class, ev.Origin}); err != nil {
					return err
				}
			}
		case ChaosOriginRestart:
			for _, class := range expandClasses(ev.Path) {
				if err := restart(ev, crashTarget{class, ev.Origin}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
