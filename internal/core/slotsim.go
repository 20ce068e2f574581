package core

import (
	"fmt"
	"time"

	"mpdash/internal/predict"
)

// This file is the reproduction of the paper's §7.2.2 trace-driven
// simulator: a discrete-time simulation of Algorithm 1 plus the
// Holt-Winters predictor with one slot per RTT, used to compare the online
// scheduler against the offline optimum (Table 2) under realistic
// bandwidth fluctuation.

// SlotSimConfig parameterizes one slot-granularity run.
type SlotSimConfig struct {
	// WiFiMbps and CellMbps are per-slot actual bandwidths; they wrap if
	// the transfer outlives them.
	WiFiMbps []float64
	CellMbps []float64
	// Slot is the slot duration (the paper uses the path RTT).
	Slot time.Duration
	// Size is S in bytes.
	Size int64
	// Deadline is D.
	Deadline time.Duration
	// Alpha is the safety factor; 0 means DefaultAlpha.
	Alpha float64
	// Predictor estimates WiFi throughput; nil means a fresh
	// default Holt-Winters.
	Predictor predict.Predictor
	// SeedSlots pre-observes that many trailing trace samples before the
	// transfer starts, standing in for the estimator state MPTCP already
	// has from preceding traffic. Negative disables seeding; 0 means 5.
	SeedSlots int
}

// SlotSimResult summarizes one run.
type SlotSimResult struct {
	WiFiBytes     float64
	CellularBytes float64
	// CellularFrac is the Table 2 "Cell %" metric.
	CellularFrac float64
	// Missed reports whether the deadline passed before S bytes landed.
	Missed bool
	// MissedBy is how far past the deadline the transfer finished
	// (zero when the deadline was met).
	MissedBy time.Duration
	// Finish is when the last byte landed.
	Finish time.Duration
	// Toggles counts cellular on/off transitions.
	Toggles int
}

// SimulateOnline runs Algorithm 1 at slot granularity against the actual
// bandwidth traces, with the predictor standing in for line 15's "estimated
// WiFi throughput".
func SimulateOnline(cfg SlotSimConfig) (SlotSimResult, error) {
	var res SlotSimResult
	if len(cfg.WiFiMbps) == 0 || len(cfg.CellMbps) == 0 {
		return res, fmt.Errorf("core: empty bandwidth trace")
	}
	if cfg.Size <= 0 || cfg.Slot <= 0 || cfg.Deadline <= 0 {
		return res, fmt.Errorf("core: invalid size=%d slot=%v deadline=%v", cfg.Size, cfg.Slot, cfg.Deadline)
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha < 0 || alpha > 1 {
		return res, fmt.Errorf("core: alpha %v", alpha)
	}
	pred := cfg.Predictor
	if pred == nil {
		pred = predict.NewDefaultHoltWinters()
	}
	seed := cfg.SeedSlots
	if seed == 0 {
		seed = 5
	}
	if seed > 0 {
		n := len(cfg.WiFiMbps)
		if seed > n {
			seed = n
		}
		for k := n - seed; k < n; k++ {
			pred.Observe(cfg.WiFiMbps[k] * 1e6)
		}
	}

	slotSec := cfg.Slot.Seconds()
	target := alpha * cfg.Deadline.Seconds()
	sent := 0.0
	size := float64(cfg.Size)
	cellular := false // line 3: cellularEnabled = FALSE

	for j := 0; ; j++ {
		now := float64(j) * slotSec
		if !res.Missed && now >= cfg.Deadline.Seconds() && sent < size {
			// Condition (2): deadline passed; both interfaces run
			// until the transfer drains (§7.2.2).
			res.Missed = true
			if !cellular {
				cellular = true
				res.Toggles++
			}
		}
		if !res.Missed {
			// Lines 13–21 with predicted RWiFi; cellular is the one,
			// never-estimated, secondary.
			est := [2]float64{pred.Predict(), 0}
			sufficient := Engage((size-sent)*8, target-now, est[:]) == 0
			if sufficient && cellular {
				cellular = false
				res.Toggles++
			} else if !sufficient && !cellular {
				cellular = true
				res.Toggles++
			}
		}

		wifiBw := cfg.WiFiMbps[j%len(cfg.WiFiMbps)] * 1e6
		wb := wifiBw / 8 * slotSec
		cb := 0.0
		if cellular {
			cb = cfg.CellMbps[j%len(cfg.CellMbps)] * 1e6 / 8 * slotSec
		}
		capacity := wb + cb
		if capacity <= 0 {
			pred.Observe(wifiBw)
			continue
		}
		if sent+capacity >= size {
			frac := (size - sent) / capacity
			res.WiFiBytes += wb * frac
			res.CellularBytes += cb * frac
			res.Finish = time.Duration((now + frac*slotSec) * float64(time.Second))
			break
		}
		sent += capacity
		res.WiFiBytes += wb
		res.CellularBytes += cb
		pred.Observe(wifiBw)
	}
	res.CellularFrac = res.CellularBytes / size
	if res.Finish > cfg.Deadline {
		res.Missed = true
		res.MissedBy = res.Finish - cfg.Deadline
	}
	return res, nil
}

// SimulateOptimal computes the offline optimum for the same setup: the
// minimum cellular fraction with perfect bandwidth knowledge (Table 2
// "Cell % Optimal"). Feasible is false when even both paths together miss
// the deadline.
func SimulateOptimal(cfg SlotSimConfig) (cellFrac float64, feasible bool, err error) {
	if len(cfg.WiFiMbps) == 0 || len(cfg.CellMbps) == 0 {
		return 0, false, fmt.Errorf("core: empty bandwidth trace")
	}
	if cfg.Size <= 0 || cfg.Slot <= 0 || cfg.Deadline <= 0 {
		return 0, false, fmt.Errorf("core: invalid size=%d slot=%v deadline=%v", cfg.Size, cfg.Slot, cfg.Deadline)
	}
	slots := int(cfg.Deadline / cfg.Slot)
	wifi := make([]float64, slots)
	cell := make([]float64, slots)
	for j := 0; j < slots; j++ {
		wifi[j] = cfg.WiFiMbps[j%len(cfg.WiFiMbps)]
		cell[j] = cfg.CellMbps[j%len(cfg.CellMbps)]
	}
	cellBytes, ok := OptimalTwoPath(wifi, cell, cfg.Slot, cfg.Size)
	return cellBytes / float64(cfg.Size), ok, nil
}
