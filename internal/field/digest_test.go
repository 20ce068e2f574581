package field

import (
	"math"
	"testing"

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
