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

	size := video.ChunkSize(0, 0)
	res, err := f.FetchChunk(0, 0, 10*time.Second)
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

	// Warm fetch: served from the store, hint header says hit, and the
	// client's per-chunk knowledge goes exact.
	res, err = f.FetchChunk(0, 0, 10*time.Second)
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
	if p := f.chint.hitProb(0); p != 1 {
		t.Errorf("hit-hinted chunk probability = %v, want 1", p)
	}
	if !f.cacheHot(0) {
		t.Error("hit-hinted chunk not hot")
	}
	if got := edge.ServedBytes(); got != 2*size {
		t.Errorf("edge served %d bytes, want %d", got, 2*size)
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
