package harness

import (
	"testing"
	"time"

	"mpdash/internal/trace"
)

// governedAllocsPerChunk is what one chunk of TestGovernedSessionAllocs's
// session costs, set-up included.
const governedAllocsPerChunk = 7

// TestGovernedSessionAllocs: a governed 60-chunk MP-DASH session — the
// field study's Airport site, FESTIVE with rate-based deadlines, the
// packet-level stack and Algorithm 1 after every delivered segment —
// costs at most governedAllocsPerChunk × 1.15 allocations per chunk.
func TestGovernedSessionAllocs(t *testing.T) {
	const chunks = 60
	cfg := SessionConfig{
		WiFi:    trace.Field("wifi", 5.97, 0.60, 100*time.Millisecond, 9000, 104),
		LTE:     trace.Field("lte", 12.1, 0.9, 100*time.Millisecond, 9000, 105),
		WiFiRTT: 32 * time.Millisecond, LTERTT: 67 * time.Millisecond,
		Scheme: MPDashRate, Chunks: chunks,
	}
	var res *SessionResult
	var err error
	n := testing.AllocsPerRun(1, func() { res, err = RunSession(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Governed == 0 {
		t.Fatal("no chunk was governed: the session no longer runs Algorithm 1")
	}
	if perChunk := float64(int(n) / chunks); perChunk > governedAllocsPerChunk*1.15 {
		t.Errorf("%v allocs per chunk, want <= %v", perChunk, governedAllocsPerChunk*1.15)
	}
	t.Logf("%v allocs, %v per chunk, %d governed", n, n/chunks, res.Governed)
}
