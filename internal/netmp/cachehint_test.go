package netmp

import (
	"math"
	"testing"
)

func TestCacheHintStateLifecycle(t *testing.T) {
	var h cacheHintState
	// A session that has never seen a header predicts 0 for everything.
	if got := h.hitProb(0); got != 0 {
		t.Fatalf("virgin hitProb = %v", got)
	}
	h.beginChunk(0)
	// First observation seeds the prior outright and is chunk 0's first.
	first, prior := h.observe(0, true)
	if !first || prior != 1 {
		t.Fatalf("first observe = (%v, %v)", first, prior)
	}
	// The chunk's own state is now exact: a known hit is probability 1.
	if got := h.hitProb(0); got != 1 {
		t.Errorf("known-hit chunk hitProb = %v", got)
	}
	// A second segment's header for the same chunk is not "first" again.
	if again, _ := h.observe(0, true); again {
		t.Error("second observation of the chunk reported first=true")
	}
	// A different chunk falls back to the session prior.
	if got := h.hitProb(7); got != 1 {
		t.Errorf("prior-backed hitProb = %v", got)
	}

	// New chunk, miss header: exact 0 for the chunk, EWMA for the prior.
	h.beginChunk(1)
	first, prior = h.observe(1, false)
	if !first {
		t.Error("new chunk's first observation not flagged")
	}
	if want := 1 + hintAlpha*(0-1.0); math.Abs(prior-want) > 1e-12 {
		t.Errorf("EWMA prior = %v, want %v", prior, want)
	}
	if got := h.hitProb(1); got != 0 {
		t.Errorf("known-miss chunk hitProb = %v", got)
	}
	if got := h.hitProb(2); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("other-chunk prior = %v, want 0.7", got)
	}
	// beginChunk resets per-chunk knowledge but keeps the prior.
	h.beginChunk(2)
	if got := h.hitProb(2); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("fresh chunk should read the prior, got %v", got)
	}
}

func TestCacheHotThreshold(t *testing.T) {
	f := &Fetcher{}
	f.chint.beginChunk(0)
	f.chint.observe(0, true)
	if !f.cacheHot(0) {
		t.Error("known-hit chunk (prob 1) not hot at threshold 0.75")
	}
	if p := f.chint.hitProb(0); p != 1 {
		t.Errorf("hitProb = %v", p)
	}
	// Another chunk rides the prior (1.0 here) — still hot.
	if !f.cacheHot(5) {
		t.Error("prior-backed hot chunk not hot")
	}
	// A prior that falls below the threshold parks the hedge suppression.
	f.chint.beginChunk(1)
	f.chint.observe(1, false) // prior falls to 0.7 < 0.75
	if f.cacheHot(2) {
		t.Error("prior 0.7 hot under threshold 0.75")
	}
}
