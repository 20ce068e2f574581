package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mpdash/internal/harness"
	"mpdash/internal/obs"
	"mpdash/internal/swarm"
)

// The traced pass of a workload is three parts of its --seconds: a
// short window with telemetry off, the same window with every public
// telemetry hook on and the harness recording a span around each call
// it makes into a layer, and the probes. The two windows' CPU per chunk
// differ by telemetry's overhead; the second one feeds the per-layer
// metrics; the probes price the layers for the ledger.

// tracedParts splits the pass's time.
func tracedParts(cfg runConfig) (window, probes time.Duration) {
	return cfg.window / 4, cfg.window / 3
}

// telemetry is a journal-and-registry sink that also counts events.
type telemetry struct {
	*obs.Telemetry
	events atomic.Int64
}

func newTelemetry() *telemetry {
	t := &telemetry{Telemetry: obs.New()}
	t.OnEmit = func(obs.Event) { t.events.Add(1) }
	return t
}

// ledger writes the traced window's CPU per chunk as the part the
// probes account for and the rest. By construction the two sum to
// traced.cpu_us_per_chunk; the residual is code with no public entry
// point (socket syscalls beyond the raw client's, request parsing,
// goroutine spawns, the clients' own byte verification).
func ledger(v map[string]float64, cpuPerChunk, attributed float64) {
	v["traced.cpu_us_per_chunk"] = cpuPerChunk
	v["ledger.attributed_us_per_chunk"] = attributed
	v["ledger.residual_us_per_chunk"] = cpuPerChunk - attributed
}

// finishTraced ends a traced pass: spans to disk.
func finishTraced(cfg runConfig, name string, rec *recorder, o *outcome) error {
	path := filepath.Join(cfg.outDir, "spans-"+name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return err
	}
	o.notef("%d boundary spans in %s", len(rec.spans), path)
	return nil
}

func runSocketTraced(kind socketKind, cfg runConfig) (*outcome, error) {
	window, probeBudget := tracedParts(cfg)
	rec := newRecorder()
	root, endRoot := rec.begin("bench."+kind.name, 0, "")
	setupID, endSetup := rec.begin("setup", root, "")
	r, _, err := timedSetup(kind, rec, setupID)
	endSetup()
	if err != nil {
		return nil, err
	}
	defer r.close()
	keys := newKeys(cfg.seed, kind)
	r.drive(cfg.warmup(), keys, nil, 0, nil)

	plain, plainCost, _ := r.window(window, keys, nil, 0, nil)

	tel := newTelemetry()
	tracer := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0.1, Seed: cfg.seed})
	for _, f := range r.fetch {
		f.Instrument(tel.Telemetry)
	}
	for _, s := range r.origins {
		s.Instrument(tel.Telemetry)
	}
	for _, e := range r.edges {
		e.Instrument(tel.Telemetry)
	}
	if r.store != nil {
		r.store.Instrument(tel.Telemetry)
	}
	var originBytes0 int64
	for _, e := range r.edges {
		originBytes0 += e.OriginBytes()
	}
	winID, endWin := rec.begin("window.traced", root, "")
	smp := startSampler(r.originConns)
	t, wc, cs := r.window(window, keys, rec, winID, tracer)
	c := wc.total
	endWin()
	rec.importTraces(winID, tracer.Records())

	o := newOutcome(plain.attempted+t.attempted, plain.failed+t.failed, append(plain.problems, t.problems...))
	v := o.values
	n := float64(max(t.delivered, 1))
	smp.finish(v, c, t.delivered)
	v["netmp.server.peak_conns"] = smp.extraMax
	v["failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	v["deadline_miss_rate"] = 1 - float64(t.onTime)/float64(max(t.attempted, 1))
	if b := t.wifiBytes + t.lteBytes; b > 0 {
		v["cellular_byte_share"] = float64(t.lteBytes) / float64(b)
		v["netmp.fetch.secondary_byte_share"] = v["cellular_byte_share"]
	}
	for l, name := range []string{"small", "mid", "large"} {
		v["netmp.fetch.ms_p50."+name] = pct(t.byLevelMS[l], 50)
	}
	v["netmp.fetch.retries_per_chunk"] = float64(t.retries) / n
	v["netmp.fetch.requeued_per_chunk"] = float64(t.requeued) / n
	if r.store != nil {
		if looked := cs.Hits + cs.Misses; looked > 0 {
			v["cache.hit_rate"] = float64(cs.Hits) / float64(looked)
		}
		v["cache.fills_per_chunk"] = float64(cs.Fills) / n
		v["cache.evictions_per_chunk"] = float64(cs.Evictions) / n
		v["cache.collapsed_per_chunk"] = float64(cs.Collapsed) / n
		v["cache.resident_mb"] = float64(cs.Bytes) / (1 << 20)
		var originBytes, fillErrs int64
		for _, e := range r.edges {
			originBytes += e.OriginBytes()
			fillErrs += e.FillErrors()
		}
		v["netmp.edge.origin_bytes_per_chunk"] = float64(originBytes-originBytes0) / n
		v["netmp.edge.fill_errors"] = float64(fillErrs)
	}
	v["cpu_us_per_chunk"] = plainCost.total.cpuPerChunk(plain.delivered)
	if v["cpu_us_per_chunk"] > 0 {
		v["obs.trace_overhead_share"] = c.cpuPerChunk(t.delivered)/v["cpu_us_per_chunk"] - 1
	}

	pc, err := runProbes(probeBudget, v, rec, root)
	if err != nil {
		return nil, err
	}
	// Idle wait: what a fetch spent not being served — tick sleeps,
	// ledger sleeps, goroutine joins.
	service := v["netmp.server.range_us.16k"]
	frontReqUS := pc.originReqUS
	if kind.edge {
		service, frontReqUS = v["netmp.edge.hit_us.16k"], pc.edgeHitReqUS
	}
	idle := make([]float64, len(t.chunkMS))
	reqs := 0.0
	for i, d := range t.chunkMS {
		idle[i] = max(d-t.chunkReqs[i]*service/1e3, 0)
		reqs += t.chunkReqs[i]
	}
	v["netmp.fetch.idle_wait_ms_p50"] = pct(idle, 50)

	// Ledger: requests priced by the wire probe of the tier the clients
	// talk to (scaled by bytes, which is what a request's cost follows),
	// fills by the origin's wire probe plus the store's write path, and
	// the client's rendering, buffer cycling and telemetry per call.
	bytes := float64(t.wifiBytes + t.lteBytes)
	fillBytes := v["netmp.edge.origin_bytes_per_chunk"] * n
	attributed := bytes/segSize*frontReqUS +
		fillBytes/segSize*pc.originReqUS +
		float64(cs.Fills)*(pc.putNS+pc.fetchMissNS)/1e3 +
		reqs*(pc.renderNS+2*pc.bufpoolNS)/1e3 +
		n*pc.traceChunkNS/1e3 +
		float64(tel.events.Load())*pc.journalNS/1e3
	ledger(v, c.cpuPerChunk(t.delivered), attributed/n)
	endRoot()

	o.notef("%d clients, closed loop: %v untraced then %v traced (%d chunks, %d FetchChunk spans, %d journal events, %d traces kept), probes %v",
		clients(), window, window, t.delivered, len(t.chunkMS), tel.events.Load(), tracer.Stats().Kept, probeBudget)
	return o, finishTraced(cfg, kind.name, rec, o)
}

func runSwarmTraced(cfg runConfig) (*outcome, error) {
	_, probeBudget := tracedParts(cfg)
	// A population cannot be cut short, so each of the two runs gets
	// half the window's arrivals.
	window := cfg.window / 2
	rec := newRecorder()
	root, endRoot := rec.begin("bench.paced-swarm", 0, "")

	plainSw, plainPlan, _, err := swarmSetup(cfg.seed, window)
	if err != nil {
		return nil, err
	}
	plain, err := playSwarm(plainSw, plainPlan)
	if err != nil {
		return nil, err
	}

	_, endPlan := rec.begin("swarm.Plan", root, "")
	sw, plan, planTook, err := swarmSetup(cfg.seed, window)
	endPlan()
	if err != nil {
		return nil, err
	}
	tel := newTelemetry()
	sw.Instrument(tel.Telemetry)
	sw.Tracer = obs.NewTracer(obs.TraceConfig{HeadSampleRate: 0.1, Seed: cfg.seed})
	runID, endRun := rec.begin("swarm.Run", root, "")
	smp := startSampler(nil)
	run, err := playSwarm(sw, plan)
	endRun()
	if err != nil {
		return nil, err
	}
	rec.importTraces(runID, sw.Tracer.Records())
	rep := run.rep
	o := run.outcome()
	po := plain.outcome()
	o.attempted += po.attempted
	o.failed += po.failed
	o.problems = append(o.problems, po.problems...)
	v := o.values
	n := float64(max(rep.Chunks, 1))
	smp.finish(v, run.cost, int64(rep.Chunks))

	v["failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	v["deadline_miss_rate"] = rep.DeadlineMissRate
	v["cellular_byte_share"] = rep.CellularByteShare
	v["netmp.fetch.secondary_byte_share"] = rep.CellularByteShare // every profile prefers WiFi
	v["swarm.startup_ms_p50"] = 1e3 * rep.StartupDelayS.P50
	v["swarm.startup_ms_p95"] = 1e3 * rep.StartupDelayS.P95
	v["netmp.fetch.retries_per_chunk"] = float64(rep.Retries) / n
	v["netmp.fetch.requeued_per_chunk"] = float64(rep.Requeued) / n
	v["netmp.server.peak_conns"] = float64(rep.Server.PeakConns)
	v["netmp.stream.stalls_per_session"] = float64(rep.Stalls) / float64(max(rep.Sessions, 1))
	v["netmp.stream.rebuffer_ratio_mean"] = rep.RebufferRatio.Mean
	v["netmp.stream.lost_chunks"] = float64(rep.LostChunks)
	v["swarm.plan_ms"] = ms(planTook)
	v["swarm.queue_wait_ms_p95"] = 1e3 * rep.QueueWaitS.P95
	v["swarm.peak_concurrent"] = float64(rep.PeakConcurrent)
	v["swarm.wall_s"] = rep.WallS
	tr := swarm.BuildTraceReport(sw.Tracer)
	for _, cat := range tr.Categories {
		switch cat.Category {
		case obs.CatSegment, obs.CatFetch, obs.CatChunk, obs.CatSched, obs.CatStall:
			v["swarm.miss_budget."+cat.Category] = cat.Share
		}
	}
	v["cpu_us_per_chunk"] = plain.cost.cpuPerChunk(int64(plain.rep.Chunks))
	if v["cpu_us_per_chunk"] > 0 {
		v["obs.trace_overhead_share"] = run.cost.cpuPerChunk(int64(rep.Chunks))/v["cpu_us_per_chunk"] - 1
	}

	pc, err := runProbes(probeBudget, v, rec, root)
	if err != nil {
		return nil, err
	}
	// Ledger: origin requests by bytes, one shaper Take per 16 KiB block
	// written, the client's rendering and buffer cycling per 32 KiB
	// request, and telemetry per chunk and per event.
	blocks := float64(rep.BytesTotal) / segSize
	attributed := blocks*(pc.originReqUS+pc.shaperNS/1e3) +
		blocks/2*(pc.renderNS+2*pc.bufpoolNS)/1e3 +
		n*pc.traceChunkNS/1e3 +
		float64(tel.events.Load())*pc.journalNS/1e3
	ledger(v, run.cost.cpuPerChunk(int64(rep.Chunks)), attributed/n)
	endRoot()

	if err := writePrometheus(filepath.Join(cfg.outDir, "metrics-paced-swarm.prom"), tel.Registry); err != nil {
		return nil, err
	}
	o.notef("open loop: %d sessions untraced then %d traced, Poisson over %v each; %d chunks, %d journal events, %d of %d chunk traces kept (%d missed)",
		plain.rep.Sessions, rep.Sessions, sw.Scenario.Arrival.Over.D(), rep.Chunks, tel.events.Load(), tr.Kept, tr.Finished, tr.Missed)
	return o, finishTraced(cfg, "paced-swarm", rec, o)
}

// writePrometheus saves the registry's exposition: the counts the
// population's own telemetry kept, beside the harness's.
func writePrometheus(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runFieldTraced(cfg runConfig, chunks int) (*outcome, error) {
	_, probeBudget := tracedParts(cfg)
	rec := newRecorder()
	root, endRoot := rec.begin("bench.sim-field", 0, "")
	locs, _, err := fieldSetup(nil)
	if err != nil {
		return nil, err
	}
	runStudy(locs[:1], 2, nil, 0, nil)
	studyID, endStudy := rec.begin("study", root, "")
	smp := startSampler(nil)
	before := takeSnapshot()
	fr := runStudy(locs, chunks, rec, studyID, nil)
	c := takeSnapshot().since(before)
	endStudy()
	o := newOutcome(fr.attempted, fr.failed, fr.problems)
	v := o.values
	delivered := fr.attempted - fr.failed
	smp.finish(v, c, delivered)
	v["failed_share"] = float64(fr.failed) / float64(max(fr.attempted, 1))
	qoe := map[string]float64{}
	fr.qoe(qoe, o.exact)
	v["deadline_miss_rate"] = 1 - qoe["deadline_met_share"]
	v["cellular_byte_share"] = 1 - qoe["wifi_byte_share"]

	// RunStudy hides its sessions, so the harness runs one location's
	// six itself to time harness.RunSession at its own boundary.
	sessID, endSess := rec.begin("sessions", root, locs[0].Name)
	wifi, lte := locs[0].WiFiTrace(traceSlot, traceSlots), locs[0].LTETrace(traceSlot, traceSlots)
	arms := []struct {
		algo   harness.Algorithm
		scheme harness.Scheme
	}{
		{harness.FESTIVE, harness.Baseline}, {harness.BBA, harness.Baseline},
		{harness.FESTIVE, harness.MPDashRate}, {harness.FESTIVE, harness.MPDashDuration},
		{harness.BBA, harness.MPDashRate}, {harness.BBA, harness.MPDashDuration},
	}
	for _, a := range arms {
		_, end := rec.begin("harness.RunSession", sessID, string(a.algo)+"/"+a.scheme.String())
		_, err := harness.RunSession(harness.SessionConfig{WiFi: wifi, LTE: lte, WiFiRTT: locs[0].WiFiRTT, LTERTT: locs[0].LTERTT,
			Algorithm: a.algo, Scheme: a.scheme, Chunks: chunks})
		end()
		if err != nil {
			return nil, err
		}
	}
	endSess()
	v["harness.session_ms_p50"] = pct(rec.durationsMS("harness.RunSession"), 50)

	if _, err := runProbes(probeBudget, v, rec, root); err != nil {
		return nil, err
	}
	// No operation inside a simulated session can be counted from
	// outside, so nothing is attributed and the residual is the whole.
	v["cpu_us_per_chunk"] = c.cpuPerChunk(delivered)
	ledger(v, c.cpuPerChunk(delivered), 0)
	endRoot()
	o.notef("fixed work: %d locations × 6 sessions × %d simulated chunks; RunStudy takes no telemetry, so obs.trace_overhead_share is 0 here",
		len(locs), chunks)
	return o, finishTraced(cfg, "sim-field", rec, o)
}
