package field

import (
	"math"
	"testing"
	"time"

	"mpdash/internal/harness"
	"mpdash/internal/stats"
)

// airportDigest is the FNV-1a digest of every session of the Airport
// location's 20-chunk study, computed at commit 7533f1b (before the
// simulator stack's packet path was made allocation-free) on amd64. It
// covers what the bench's three pinned percentiles cannot see: any
// change in event order, jitter draws or link arithmetic moves some
// chunk's byte split or finish time and with it the digest.
const airportDigest uint64 = 0xa9cf03ef8da0cf7

// sessionDigest folds a session's per-chunk level, per-path bytes,
// start/finish times and stalls, then its deadline misses and radio
// energy, into h.
func sessionDigest(h uint64, r *harness.SessionResult) uint64 {
	for _, c := range r.Report.Results {
		h = stats.FNVMix(h, uint64(c.Meta.Level))
		h = stats.FNVMix(h, uint64(c.PathBytes["wifi"]))
		h = stats.FNVMix(h, uint64(c.PathBytes["lte"]))
		h = stats.FNVMix(h, uint64(c.Start))
		h = stats.FNVMix(h, uint64(c.End))
		h = stats.FNVMix(h, uint64(c.StallTime))
	}
	h = stats.FNVMix(h, uint64(r.Report.Stalls))
	h = stats.FNVMix(h, uint64(r.DeadlineMisses))
	return stats.FNVMix(h, math.Float64bits(r.RadioJ()))
}

// TestStudyDigestPinned is the cross-commit determinism check that runs
// inside go test: the packet-level stack must reproduce the pinned
// study to the last bit.
func TestStudyDigestPinned(t *testing.T) {
	loc, ok := ByName("Airport")
	if !ok {
		t.Fatal("no Airport location")
	}
	res, err := RunStudy(StudyConfig{Locations: []Location{loc}, Chunks: 20})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	h := stats.FNVOffset
	for _, algo := range []harness.Algorithm{harness.FESTIVE, harness.BBA} {
		h = sessionDigest(h, o.Baseline[algo])
	}
	for _, k := range SchemeKeys() {
		h = sessionDigest(h, o.MPDash[k])
	}
	if h != airportDigest {
		t.Fatalf("study digest %#x, want %#x: the simulator stack no longer reproduces the pinned sessions", h, airportDigest)
	}
}

// jitterDigest is the FNV-1a digest of three Airport sessions run with
// ±30 % per-packet propagation jitter, computed at commit 24e443f (every
// packet on the global event heap) on amd64. No catalogue location sets
// jitter, so the study digest never takes the link's reorder path; this
// one does on every burst.
const jitterDigest uint64 = 0xf0ccff31211b1d43

// TestJitterDigestPinned: jittered packets overtake each other inside a
// link, and the sessions must still come out the same to the last bit.
func TestJitterDigestPinned(t *testing.T) {
	loc, ok := ByName("Airport")
	if !ok {
		t.Fatal("no Airport location")
	}
	const slot, traceSlots = 100 * time.Millisecond, 9000
	wifi, lte := loc.WiFiTrace(slot, traceSlots), loc.LTETrace(slot, traceSlots)
	h := stats.FNVOffset
	for _, arm := range []struct {
		scheme harness.Scheme
		algo   harness.Algorithm
	}{
		{harness.Baseline, harness.FESTIVE},
		{harness.MPDashRate, harness.FESTIVE},
		{harness.MPDashDuration, harness.BBA},
	} {
		r, err := harness.RunSession(harness.SessionConfig{
			WiFi: wifi, LTE: lte, WiFiRTT: loc.WiFiRTT, LTERTT: loc.LTERTT,
			Algorithm: arm.algo, Scheme: arm.scheme, Chunks: 20, RTTJitterFrac: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		h = sessionDigest(h, r)
	}
	if h != jitterDigest {
		t.Fatalf("jitter digest %#x, want %#x: reordering inside a link changed the sessions", h, jitterDigest)
	}
}
