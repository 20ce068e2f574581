package harness

import (
	"fmt"
	"time"

	"mpdash/internal/core"
	"mpdash/internal/energy"
	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
	"mpdash/internal/trace"
)

// FileConfig describes the §7.2 scheduler-only workload: a single file
// download with a deadline, no video player involved.
type FileConfig struct {
	WiFi, LTE       *trace.Trace
	WiFiRTT, LTERTT time.Duration
	SizeBytes       int64
	// Deadline is the download window; zero disables MP-DASH (baseline
	// MPTCP).
	Deadline time.Duration
	Alpha    float64
	// Scheduler is the underlying MPTCP packet scheduler.
	Scheduler mptcp.SchedulerKind
	Device    energy.Device
	// WarmupBytes seeds the throughput estimators before the measured
	// download, standing in for prior traffic on the connection. Zero
	// means 1 MB.
	WarmupBytes int64
}

// FileResult is the outcome of one file download.
type FileResult struct {
	Duration   time.Duration
	LTEBytes   int64
	WiFiBytes  int64
	Energy     energy.Session
	MissedBy   time.Duration // zero when the deadline was met
	WiFiSeries []float64
	LTESeries  []float64
}

// RadioJ returns the total radio energy.
func (r *FileResult) RadioJ() float64 { return r.Energy.RadioJ() }

// RunFileDownload executes the Fig. 4 workload.
func RunFileDownload(cfg FileConfig) (*FileResult, error) {
	if cfg.WiFi == nil || cfg.LTE == nil {
		return nil, fmt.Errorf("harness: both traces required")
	}
	if cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("harness: size %d", cfg.SizeBytes)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = core.DefaultAlpha
	}
	if cfg.WiFiRTT == 0 {
		cfg.WiFiRTT = 50 * time.Millisecond
	}
	if cfg.LTERTT == 0 {
		cfg.LTERTT = 60 * time.Millisecond
	}
	if cfg.Device.Name == "" {
		cfg.Device = energy.GalaxyNote()
	}
	if cfg.WarmupBytes == 0 {
		cfg.WarmupBytes = 1_000_000
	}

	s := sim.New()
	conn, err := mptcp.NewConn(s, mptcp.Config{
		Scheduler: cfg.Scheduler,
		Paths:     testbed(cfg.WiFi, cfg.LTE, cfg.WiFiRTT, cfg.LTERTT, 0),
	})
	if err != nil {
		return nil, err
	}

	// Warmup transfer (not measured).
	if cfg.WarmupBytes > 0 {
		wt, err := conn.StartTransfer(cfg.WarmupBytes)
		if err != nil {
			return nil, err
		}
		if !wt.RunUntilComplete(s.Now() + 10*time.Minute) {
			return nil, fmt.Errorf("harness: warmup stuck")
		}
	}
	wifi0 := conn.Path("wifi").DeliveredBytes()
	lte0 := conn.Path("lte").DeliveredBytes()
	measureStart := s.Now()

	tr, err := conn.StartTransfer(cfg.SizeBytes)
	if err != nil {
		return nil, err
	}
	if cfg.Deadline > 0 {
		sched, err := core.NewScheduler(s, conn, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		sched.Govern(tr)
		if err := sched.Enable(cfg.SizeBytes, cfg.Deadline); err != nil {
			return nil, err
		}
	}
	if !tr.RunUntilComplete(s.Now() + time.Hour) {
		return nil, fmt.Errorf("harness: download stuck")
	}

	res := &FileResult{
		Duration:   tr.Duration(),
		LTEBytes:   conn.Path("lte").DeliveredBytes() - lte0,
		WiFiBytes:  conn.Path("wifi").DeliveredBytes() - wifi0,
		WiFiSeries: conn.Path("wifi").Meter().SeriesMbps(),
		LTESeries:  conn.Path("lte").Meter().SeriesMbps(),
	}
	if cfg.Deadline > 0 && res.Duration > cfg.Deadline {
		res.MissedBy = res.Duration - cfg.Deadline
	}
	// Energy over the measured window plus one tail.
	tailWindow := s.Now() - measureStart + 15*time.Second
	mw := conn.Path("wifi").Meter().Window
	skip := int(measureStart / mw)
	lteB := conn.Path("lte").Meter().Buckets()
	wifiB := conn.Path("wifi").Meter().Buckets()
	if skip < len(lteB) {
		lteB = lteB[skip:]
	} else {
		lteB = nil
	}
	if skip < len(wifiB) {
		wifiB = wifiB[skip:]
	} else {
		wifiB = nil
	}
	res.Energy, err = energy.SessionEnergy(cfg.Device, lteB, wifiB, mw, tailWindow)
	if err != nil {
		return nil, err
	}
	return res, nil
}
