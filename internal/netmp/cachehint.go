package netmp

// Client-side cache awareness. An edge tier stamps every 206 with
// "X-MPDash-Cache: hit|miss"; the fetcher folds those observations into
// two decisions:
//
//   - Engage damping: a cache-hot chunk's service time is dominated by
//     the edge's local store, not the origin path, so the Algorithm 1
//     pressure test scales the remaining-byte demand down by the chunk's
//     hit probability before comparing it against the primary's measured
//     rate — the costly secondary stays parked for chunks the edge will
//     serve fast.
//   - Hedge suppression: a hedge duplicates a request whose pace
//     projects a miss, but a cache-hot chunk's slow first bytes are the
//     edge's singleflight fill, which a duplicate request would only
//     join, not beat. Chunks at or above the hot threshold are not
//     hedged.
//
// Per-chunk knowledge is exact once the first segment's response headers
// arrive (known hit → full damping, known miss → none); before that the
// prior is an EWMA of the session's past observations — a recency
// estimate of how cache-hot this client's content is. A session that
// never sees the header (direct-to-origin) keeps probability 0 and both
// decisions are untouched.

import (
	"sync"

	"mpdash/internal/obs"
)

// hintHot is the hit probability at or above which a chunk is not
// hedged; hintAlpha is the EWMA weight of each observation in the prior.
const (
	hintHot   = 0.75
	hintAlpha = 0.3
)

// Per-chunk hint states.
const (
	hintUnknown = iota
	hintHit
	hintMiss
)

// cacheHintState is the fetcher's hint memory: the in-flight chunk's
// known state plus the session-wide EWMA prior. Safe for concurrent use
// (both path workers observe headers).
type cacheHintState struct {
	mu     sync.Mutex
	chunk  int // chunk index the per-chunk state describes
	state  int
	prior  float64
	seeded bool
}

// beginChunk resets the per-chunk state for a new fetch.
func (h *cacheHintState) beginChunk(index int) {
	h.mu.Lock()
	h.chunk = index
	h.state = hintUnknown
	h.mu.Unlock()
}

// observe folds one X-MPDash-Cache response header in. It returns true
// when this is the chunk's first observation (the journal-worthy one)
// along with the updated prior.
func (h *cacheHintState) observe(index int, hit bool) (first bool, prior float64) {
	x := 0.0
	if hit {
		x = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.seeded {
		h.prior, h.seeded = x, true
	} else {
		h.prior += hintAlpha * (x - h.prior)
	}
	if h.chunk == index && h.state == hintUnknown {
		if hit {
			h.state = hintHit
		} else {
			h.state = hintMiss
		}
		return true, h.prior
	}
	return false, h.prior
}

// hitProb returns the chunk's current hit probability: exact once the
// chunk's own state is known, the session prior before that, and 0 for
// a session that has never seen a hint.
func (h *cacheHintState) hitProb(index int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.chunk == index {
		switch h.state {
		case hintHit:
			return 1
		case hintMiss:
			return 0
		}
	}
	if !h.seeded {
		return 0
	}
	return h.prior
}

// cacheHot reports whether index is hot enough to suppress hedging.
func (f *Fetcher) cacheHot(index int) bool {
	return f.chint.hitProb(index) >= hintHot
}

// noteCacheHeader folds one response header observation in, journaling
// the chunk's first one.
func (f *Fetcher) noteCacheHeader(pc *pathConn, index, level int, hit bool) {
	first, prior := f.chint.observe(index, hit)
	if !first {
		return
	}
	fo := f.obsHandles()
	if fo == nil || fo.sink == nil {
		return
	}
	state := "miss"
	if hit {
		state = "hit"
	}
	fo.sink.Emit(obs.NewEvent("cache.hint").WithPath(pc.name).
		WithChunk(index, level).
		WithStr("state", state).
		WithNum("prior", prior))
}
