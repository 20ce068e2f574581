package netmp

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// edgeRig stands up origin → edge → store for one video.
func edgeRig(t *testing.T, pol EdgePolicy) (*ChunkServer, *EdgeServer, *cache.Cache) {
	t.Helper()
	video := dash.BigBuckBunny()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := cache.New(cache.Config{})
	edge, err := NewEdgeServer(video, "bbb", []string{origin.Addr()}, store, pol)
	if err != nil {
		origin.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		edge.Close()
		origin.Close()
	})
	return origin, edge, store
}

func TestEdgeValidation(t *testing.T) {
	video := dash.BigBuckBunny()
	store := cache.New(cache.Config{})
	if _, err := NewEdgeServer(video, "v", nil, store, EdgePolicy{}); err == nil {
		t.Error("edge with no origins accepted")
	}
	if _, err := NewEdgeServer(video, "v", []string{"127.0.0.1:1"}, nil, EdgePolicy{}); err == nil {
		t.Error("edge with no store accepted")
	}
}

// originFills lists the paths of rec's cache/origin-fill spans.
func originFills(rec *obs.TraceRecord) []string {
	var paths []string
	for _, sp := range rec.Spans {
		if sp.Category == obs.CatCache && sp.Name == "origin-fill" {
			paths = append(paths, sp.Path)
		}
	}
	return paths
}

func TestEdgeServesVerifiedChunksAndHints(t *testing.T) {
	// Hedging off end to end: the byte ledgers below are exact only when
	// no duplicate (loser) requests can be issued.
	origin, edge, store := edgeRig(t, EdgePolicy{})
	video := edge.Video
	f, err := NewFetcher(video, edge.Addr(), edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Hedge.Disabled = true
	// One trace per fetch, every one kept: session 1 the cold fetch,
	// session 2 the warm one.
	tr := obs.NewTracer(obs.TraceConfig{HeadSampleRate: 1})
	fetch := func(session int) (*FetchResult, error) {
		ct := tr.StartTrace(session, 0, 0)
		f.SetTrace(ct)
		defer func() {
			f.SetTrace(nil)
			ct.Finish(obs.TraceOK)
		}()
		return f.FetchChunk(0, 0, 10*time.Second)
	}

	size := video.ChunkSize(0, 0)
	res, err := fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Size != size {
		t.Fatalf("cold fetch: verified=%v size=%d want %d", res.Verified, res.Size, size)
	}
	// The cold chunk cost the origin exactly one whole-chunk fill, even
	// though the client split it into two range requests.
	if st := store.Stats(); st.Fills != 1 {
		t.Fatalf("cold fetch ran %d fills", st.Fills)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("origin bytes = %d, want one chunk (%d)", got, size)
	}
	if got := origin.ServedBytes(); got != size {
		t.Errorf("origin served %d bytes, want %d", got, size)
	}

	// Warm fetch: served from the store, the header says hit.
	res, err = fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("warm fetch not verified")
	}
	if st := store.Stats(); st.Fills != 1 {
		t.Errorf("warm fetch refilled: %d fills", st.Fills)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("warm fetch pulled origin bytes: %d", got)
	}
	if got := edge.ServedBytes(); got != 2*size {
		t.Errorf("edge served %d bytes, want %d", got, 2*size)
	}

	// The miss header opens a cache/origin-fill span on the path that
	// read it; hit headers open none.
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("kept %d traces, want 2", len(recs))
	}
	for _, rec := range recs {
		fills := originFills(rec)
		switch rec.Session {
		case 1:
			if len(fills) == 0 {
				t.Error("cold fetch's trace holds no cache/origin-fill span")
			}
			for _, p := range fills {
				if p != "primary" && p != "secondary" {
					t.Errorf("cold fetch's origin-fill span on path %q", p)
				}
			}
		case 2:
			if len(fills) != 0 {
				t.Errorf("warm fetch's trace holds origin-fill spans on %v", fills)
			}
		}
	}
}

// TestEdgeSingleflight64Fetchers is the collapse contract under -race:
// 64 concurrent clients missing the same cold chunk produce exactly one
// origin request, and every client still gets byte-for-byte verified
// payload (zero ledger violations).
func TestEdgeSingleflight64Fetchers(t *testing.T) {
	origin, edge, store := edgeRig(t, EdgePolicy{FillFetchers: 2})
	video := edge.Video
	const n = 64

	fetchers := make([]*Fetcher, n)
	for i := range fetchers {
		f, err := NewFetcher(video, edge.Addr(), edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Hedge.Disabled = true
		fetchers[i] = f
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]*FetchResult, n)
	for i, f := range fetchers {
		wg.Add(1)
		go func(i int, f *Fetcher) {
			defer wg.Done()
			results[i], errs[i] = f.FetchChunk(3, 1, 30*time.Second)
		}(i, f)
	}
	wg.Wait()

	size := video.ChunkSize(3, 1)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		if !results[i].Verified || results[i].Size != size {
			t.Fatalf("fetcher %d: verified=%v size=%d want %d",
				i, results[i].Verified, results[i].Size, size)
		}
	}
	// Exactly one origin request for the whole stampede.
	if st := store.Stats(); st.Fills != 1 {
		t.Errorf("stampede ran %d origin fills, want 1", st.Fills)
	}
	if got := origin.ServedBytes(); got != size {
		t.Errorf("origin served %d bytes, want exactly one chunk (%d)", got, size)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("edge charged %d origin bytes, want %d", got, size)
	}
	// Every client's payload was served in full.
	if got := edge.ServedBytes(); got != int64(n)*size {
		t.Errorf("edge served %d bytes, want %d", got, int64(n)*size)
	}
	if st := store.Stats(); st.Misses != 1+st.Collapsed {
		t.Errorf("misses (%d) != leader + collapsed (%d)", st.Misses, 1+st.Collapsed)
	}
}

func TestEdgeFillFailureSurfacesAsError(t *testing.T) {
	origin, edge, _ := edgeRig(t, EdgePolicy{FillWindow: time.Second})
	video := edge.Video
	// Kill the backhaul: every miss now exhausts the origin set.
	origin.Close()

	f, err := NewFetcher(video, edge.Addr(), edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.FetchChunk(0, 0, 3*time.Second); err == nil {
		t.Fatal("fetch through a backhaul-dead edge succeeded")
	}
	if edge.FillErrors() == 0 {
		t.Error("failed fills not counted")
	}
}

// TestEdgeRecoversAfterOriginOutage pins the dead-fill-fetcher fix: an
// origin outage that outlasts the fill fetchers' redial budget takes all
// of their paths down, and a path is down for its fetcher's lifetime — so
// without replacement every later miss is a 503, origin back or not.
func TestEdgeRecoversAfterOriginOutage(t *testing.T) {
	const slack = 8 // timer and netpoll wiggle, as in the leak tests
	watermark := runtime.NumGoroutine()
	video := dash.BigBuckBunny()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := NewEdgeServer(video, "bbb", []string{origin.Addr()}, cache.New(cache.Config{}), EdgePolicy{
		FillWindow: time.Second,
		Retry:      RetryPolicy{IOTimeout: 200 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, MaxRedials: 2},
	})
	if err != nil {
		origin.Close()
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := &pathConn{name: "client", conn: conn, r: bufio.NewReader(conn)}
	// miss asks the edge for the first bytes of a chunk nobody has asked
	// for yet and reports whether it was served (206) or refused (503).
	next := 0
	miss := func() bool {
		t.Helper()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(AppendRangeRequest(nil, 1, next, 0, 9))
		next++
		n, _, err := client.readHead("206")
		if errors.Is(err, errServerBusy) { // readHead stops at the status line
			for h := []byte("x"); len(h) != 0; {
				if h, err = readLine(client.r); err != nil {
					t.Fatalf("miss %d: 503 head: %v", next-1, err)
				}
			}
			return false
		}
		if err != nil {
			t.Fatalf("miss %d: %v", next-1, err)
		}
		if _, err := io.CopyN(io.Discard, client.r, n); err != nil {
			t.Fatalf("miss %d body: %v", next-1, err)
		}
		return true
	}

	if !miss() {
		t.Fatal("healthy edge refused a miss")
	}
	origin.Crash()
	for i := 0; i < 2*cap(edge.pool); i++ {
		if miss() {
			t.Fatal("miss served with the origin crashed")
		}
	}
	for i := 0; i < cap(edge.pool); i++ { // no fill in flight: the pool is full
		f := <-edge.pool
		if f.livePaths() != 0 {
			t.Errorf("fill fetcher %d still has a live path after the outage", i)
		}
		edge.pool <- f
	}

	if err := origin.Restart(); err != nil {
		t.Fatal(err)
	}
	errsAtRestart := edge.FillErrors()
	start := time.Now()
	for i := 0; i < 2*cap(edge.pool); i++ {
		if !miss() {
			t.Fatalf("miss %d after the origin came back: still 503", i)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("recovery took %v", took)
	}
	if got := edge.FillErrors(); got != errsAtRestart {
		t.Errorf("fill errors kept rising after the restart: %d -> %d", errsAtRestart, got)
	}

	conn.Close()
	edge.Close()
	origin.Close()
	if n := settleGoroutines(watermark+slack, 5*time.Second); n > watermark+slack {
		buf := make([]byte, 64<<10)
		t.Fatalf("goroutines %d > watermark %d + slack %d after teardown\n%s",
			n, watermark, slack, buf[:runtime.Stack(buf, true)])
	}
}

// TestEdgeHoldsBodyUntilFlush serves from a store that admits nothing,
// so each response's reference is the last one on its fill's pages. The
// response must hold it until the writev that sends its last byte: built
// with -tags mpdash_poison, a page released early is overwritten before
// the write and the client counts a corrupt body.
func TestEdgeHoldsBodyUntilFlush(t *testing.T) {
	v := wireVideo()
	origin, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{CapacityBytes: 16}) // one byte per shard: every Put refused
	edge, err := NewEdgeServer(v, "wire", []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	f, err := NewFetcher(v, edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = 64 << 10 // a pipelined run of responses per chunk
	var requests int64
	for c := 0; c < v.NumChunks; c++ {
		res, err := f.FetchChunk(c, 0, 10*time.Second)
		if err != nil || !res.Verified || res.Retries != 0 || res.WastedBytes != 0 {
			t.Fatalf("chunk %d: %+v, %v", c, res, err)
		}
		requests += (v.ChunkSize(c, 0) + f.SegmentSize - 1) / f.SegmentSize
	}
	if st := store.Stats(); st.Entries != 0 || st.Fills != requests || st.Hits != 0 {
		t.Errorf("store %+v: want no entries, no hits and a fill for each of %d requests", st, requests)
	}
}

// TestEdgeDoorkeeperParksInWindow: under MinSeen 2 a chunk's first fetch
// through an edge is one origin fill, which the doorkeeper keeps out of
// the main store; the fetch's other ranges find the body in the
// admission window. The second fetch, the chunk's second demand, makes
// no fill and moves it to the main store.
func TestEdgeDoorkeeperParksInWindow(t *testing.T) {
	v := wireVideo()
	origin, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{MinSeen: 2})
	edge, err := NewEdgeServer(v, "wire", []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	f, err := NewFetcher(v, edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = 16 << 10
	ranges := (v.ChunkSize(0, 0) + f.SegmentSize - 1) / f.SegmentSize
	for i, want := range []struct{ fills, main int64 }{{1, 0}, {1, 1}} {
		res, err := f.FetchChunk(0, 0, 10*time.Second)
		if err != nil || !res.Verified || res.Retries != 0 {
			t.Fatalf("fetch %d: %+v, %v", i+1, res, err)
		}
		if st := store.Stats(); st.Fills != want.fills || st.Entries-st.Windowed != want.main {
			t.Errorf("after fetch %d of a %d-range chunk: %d fills, %d entries in the main store; want %d and %d",
				i+1, ranges, st.Fills, st.Entries-st.Windowed, want.fills, want.main)
		}
	}
}

// TestEdgeLevelCapParksInWindow: a fill above the store's level cap waits
// in the admission window and is never promoted, so a multi-range chunk
// costs one origin fill however often it is fetched. (Refused outright,
// every range of it made a fill of its own.)
func TestEdgeLevelCapParksInWindow(t *testing.T) {
	v := miniVideo()
	origin, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{Levels: 2})
	edge, err := NewEdgeServer(v, "mini", []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	f, err := NewFetcher(v, edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = 4 << 10
	top := v.HighestLevel()
	ranges := (v.ChunkSize(0, top) + f.SegmentSize - 1) / f.SegmentSize
	for i := 1; i <= 3; i++ {
		res, err := f.FetchChunk(0, top, 10*time.Second)
		if err != nil || !res.Verified || res.Retries != 0 {
			t.Fatalf("fetch %d: %+v, %v", i, res, err)
		}
		if st := store.Stats(); st.Fills != 1 || st.Windowed != 1 || st.Entries != 1 {
			t.Errorf("after fetch %d of a %d-range level-%d chunk: %d fills, %d entries, %d windowed; want 1, 1, 1",
				i, ranges, top, st.Fills, st.Entries, st.Windowed)
		}
	}
}

// TestEdgeFillAllocs is the allocation contract of a fill: under steady
// churn through an edge, where every chunk is a miss and every fill
// evicts, a fill writes its body into pages the store recycled and
// allocates none of it. A fetched chunk — client, edge, fill fetcher and
// origin together — costs fillAllocs objects, at most fillBytes bytes:
// two FetchChunk results, and the store's body record, its page list,
// the flight and its channel. Half an object per fill is slack for a
// stray runtime allocation in the window.
func TestEdgeFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc contract gated without -race")
	}
	const fillAllocs, fillBytes = 6, 1024
	v := wireVideo()
	var largest int64
	for c := 0; c < v.NumChunks; c++ {
		largest = max(largest, v.ChunkSize(c, 0))
	}
	origin, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// One shard with room for the largest chunk, and fewer chunks than
	// the video's: a cyclic sweep misses every time.
	store := cache.New(cache.Config{CapacityBytes: largest, Shards: 1})
	edge, err := NewEdgeServer(v, "wire", []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	f, err := NewFetcher(v, edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fetch := func(from, n int) {
		for i := from; i < from+n; i++ {
			res, err := f.FetchChunk(i%v.NumChunks, 0, 10*time.Second)
			if err != nil || !res.Verified {
				t.Fatalf("fetch %d: verified=%v err=%v", i, res != nil && res.Verified, err)
			}
		}
	}
	// On one P a released page is the next fill's: with several, one can
	// sit in a P's private pool slot while another P's fill takes a new one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fetch(0, 2*v.NumChunks) // warm pools, buffers and the page pool
	const chunks = 80
	st0 := store.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fetch(0, chunks)
	runtime.ReadMemStats(&after)
	st := store.Stats()
	if fills, ev := st.Fills-st0.Fills, st.Evictions-st0.Evictions; fills != chunks || ev < fills {
		t.Fatalf("%d chunks made %d fills and %d evictions; want a fill per chunk, each evicting", chunks, fills, ev)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / chunks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / chunks
	t.Logf("per fill: %.2f allocs, %.0f B (chunks of %d KiB at most)", allocs, bytes, largest>>10)
	if allocs > fillAllocs+0.5 || bytes > fillBytes {
		t.Errorf("a fill costs %.2f allocs and %.0f B; want %d and at most %d", allocs, bytes, fillAllocs, fillBytes)
	}
}
