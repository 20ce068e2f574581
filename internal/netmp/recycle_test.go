package netmp

// Recycled connection state (bufpool.go, DESIGN.md §16): a front's
// tracker with its request reader, and a client path's reader, come from
// pools and go back once, at their one release point, holding nothing a
// next owner could see. Built with -tags mpdash_poison, what goes back is
// overwritten, so an early release shows as a corrupt body or a parse
// error (TestCappedConnFlushesBeforeTrackerGoesBack for trackers,
// TestCloseInsideAReadKeepsTheReader for path readers, and
// TestLentWindowAfterACleanRun for lent windows).

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
)

// trackWatch follows, through the test hooks, the trackers of one front
// — those taken, those handed back, and what a taken one still held —
// and counts the segment blocks and stored-body references that every
// front and client holds. It must start before the servers it watches and
// outlive them, as its cleanup unhooks.
type trackWatch struct {
	mu           sync.Mutex
	f            *front // the front followed; nil: none
	out, back    []*connTrack
	dirty        []string
	blocks, refs int
	backs        chan struct{} // one token per tracker handed back
}

func watchTracks(t *testing.T) *trackWatch {
	w := &trackWatch{backs: make(chan struct{}, 64)}
	testHookTrack = func(f *front, tr *connTrack, out bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if f != w.f {
			return
		}
		if !out {
			w.back = append(w.back, tr)
			w.backs <- struct{}{}
			return
		}
		w.out = append(w.out, tr)
		if why := trackDirt(tr); why != "" {
			w.dirty = append(w.dirty, why)
		}
	}
	testHookHold = func(stored bool, delta int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if stored {
			w.refs += delta
		} else {
			w.blocks += delta
		}
	}
	t.Cleanup(func() { testHookTrack, testHookHold = nil, nil })
	return w
}

// follow makes f the front whose trackers w follows.
func (w *trackWatch) follow(f *front) {
	w.mu.Lock()
	w.f, w.out, w.back = f, nil, nil
	w.mu.Unlock()
}

// awaitBack waits for the next tracker handed back.
func (w *trackWatch) awaitBack(t *testing.T) {
	t.Helper()
	select {
	case <-w.backs:
	case <-time.After(5 * time.Second):
		t.Fatal("no tracker came back")
	}
}

// trackDirt says what a tracker a connection has just taken holds of an
// earlier connection, or "" when it starts empty.
func trackDirt(tr *connTrack) string {
	switch {
	case len(tr.vec) != 0 || tr.body != 0 || tr.queued != 0:
		return "a queue"
	case len(tr.pooled) != 0:
		return "pooled blocks"
	case len(tr.held) != 0:
		return "stored bodies"
	case len(tr.heads) != 0:
		return "heads"
	case tr.busy:
		return "busy"
	case tr.r.Buffered() != 0:
		return "request bytes"
	case tr.timer != nil && (tr.timer.Stop() || len(tr.timer.C) != 0):
		return "a live timer"
	}
	return ""
}

// TestFrontRecyclesConnState: through an origin, an edge serving stored
// hits and an edge whose store admits nothing (every response holds the
// last reference to its fill's pages), six connections one after the
// other each ask for a whole chunk, ten bytes of it and a range past its
// end in one write; half read every answer, half hang up at once. Each
// connection's tracker comes back once its handler is done, and the next
// connection's tracker starts empty — on one P, it is the one just handed
// back. Every segment block and stored-body reference taken is given
// back. The fronts are shaped, so the shaper's timer sleeps between them.
func TestFrontRecyclesConnState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := watchTracks(t)
	v := wireVideo()
	const mbps = 200
	eachFront(t, v, mbps, func(t *testing.T, f *front) { exerciseConns(t, w, f) })
	t.Run("edge filling", func(t *testing.T) {
		origin, err := NewChunkServer(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		store := cache.New(cache.Config{CapacityBytes: 16}) // one byte per shard: every Put refused
		e, err := NewEdgeServer(v, v.Name, []string{origin.Addr()}, store, EdgePolicy{RateMbps: mbps})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		exerciseConns(t, w, e.front)
	})
}

// exerciseConns runs TestFrontRecyclesConnState's connections on f.
func exerciseConns(t *testing.T, w *trackWatch, f *front) {
	w.follow(f)
	v := f.Video
	lvlID := v.Levels[0].ID
	for i := 0; i < 6; i++ {
		conn, err := net.DialTimeout("tcp", f.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		index := i % 4 // an edge's prefilled chunks
		size := v.ChunkSize(index, 0)
		req := AppendRangeRequest(nil, lvlID, index, 0, size-1)
		req = AppendRangeRequest(req, lvlID, index, 1, 10)
		req = AppendRangeRequest(req, lvlID, index, size+5, size+9)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			c := &pathConn{name: "client", conn: conn, r: bufio.NewReader(conn)}
			for _, rg := range [][2]int64{{0, size - 1}, {1, 10}} {
				n, _, err := c.readHead("206")
				if err != nil || n != rg[1]-rg[0]+1 {
					t.Fatalf("conn %d, bytes %d-%d: length %d, err %v", i, rg[0], rg[1], n, err)
				}
				body := make([]byte, n)
				if _, err := io.ReadFull(c.r, body); err != nil || !checkChunkBody(body, index, 0, rg[0]) {
					t.Fatalf("conn %d, bytes %d-%d: a corrupt body, or err %v", i, rg[0], rg[1], err)
				}
			}
			if _, _, err := c.readHead("416"); err != nil {
				t.Fatalf("conn %d, range past the end: %v", i, err)
			}
		}
		conn.Close()
		w.awaitBack(t)
	}
	// A flush releases right after its writev returns, which may be just
	// after the client has read the bytes.
	for end := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		blocks, refs := w.blocks, w.refs
		w.mu.Unlock()
		if blocks == 0 && refs == 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("%d segment blocks and %d stored-body references still held", blocks, refs)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.dirty) != 0 {
		t.Errorf("connections took trackers holding %v", w.dirty)
	}
	if len(w.out) != 6 || len(w.back) != 6 {
		t.Fatalf("%d trackers taken, %d handed back; want 6 and 6", len(w.out), len(w.back))
	}
	reused := 0
	for i := 1; i < len(w.out); i++ {
		if w.out[i] == w.back[i-1] {
			reused++
		}
	}
	t.Logf("%d of 5 connections took the tracker just handed back", reused)
	if reused == 0 && !raceEnabled { // the race detector drops pool puts at random
		t.Error("no connection took the tracker handed back before it")
	}
}

// TestPanickingHandlerKeepsItsTracker: a handler that recovers a panic
// does not hand its tracker back — the panic may have cut a flush or a
// shaper sleep short — so the next connection takes another, which its
// handler hands back.
func TestPanickingHandlerKeepsItsTracker(t *testing.T) {
	w := watchTracks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := newFront(smallVideo(), ln, 0, &panicOnce{})
	defer f.Close()
	w.follow(f)
	for i := 0; i < 2; i++ {
		conn, r := dialServer(t, f)
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		conn.Write(AppendRangeRequest(nil, 1, 0, 0, 9))
		c := &pathConn{name: "client", conn: conn, r: r}
		if _, _, err := c.readHead("206"); (err == nil) != (i == 1) {
			t.Fatalf("connection %d: err %v", i, err)
		}
		conn.Close()
	}
	f.Close() // every handler has exited
	if got := f.OverloadStats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.out) != 2 || w.out[0] == w.out[1] || len(w.back) != 1 || w.back[0] != w.out[1] {
		t.Errorf("trackers taken %v, handed back %v: want two, the second alone back", w.out, w.back)
	}
}

// TestCappedConnFlushesBeforeTrackerGoesBack: a connection capped at two
// requests and sent three in one write ends with both answers queued, the
// third head already buffered; the handler's last flush sends them, and
// only then does the tracker go back. Built with -tags mpdash_poison, a
// tracker handed back before that flush has its queued heads overwritten:
// the client reads no 206.
func TestCappedConnFlushesBeforeTrackerGoesBack(t *testing.T) {
	v := wireVideo()
	s, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLimits(ServerLimits{MaxRequestsPerConn: 2})
	conn, r := dialServer(t, s.front)
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	var req []byte
	for i := int64(0); i < 3; i++ {
		req = AppendRangeRequest(req, 1, 0, 10*i, 10*i+9)
	}
	conn.Write(req)
	c := &pathConn{name: "client", conn: conn, r: r}
	for i := int64(0); i < 2; i++ {
		n, _, err := c.readHead("206")
		if err != nil || n != 10 {
			t.Fatalf("answer %d: length %d, err %v", i, n, err)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil || !checkChunkBody(body, 0, 0, 10*i) {
			t.Fatalf("answer %d: body %x, err %v", i, body, err)
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Errorf("after the cap: err %v, want EOF", err)
	}
	if got := s.OverloadStats().CappedConns; got != 1 {
		t.Errorf("CappedConns = %d, want 1", got)
	}
}

// TestCloseInsideAReadKeepsTheReader: Close, called while the preferred
// path is in the middle of a body — from the hook that sees a body read
// into a segment block, on the FetchChunk's own goroutine — returns
// without giving back the reader that FetchChunk still reads. The fetch
// fails with errFetcherClosed and gives the readers back as it returns.
// Built with -tags mpdash_poison, a reader given back early reads on as
// poison.
func TestCloseInsideAReadKeepsTheReader(t *testing.T) {
	v := wireVideo()
	a, b := twoOrigins(t, v, 0)
	f, err := NewFetcher(v, a.Addr(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pc := f.paths[0]
	var once sync.Once
	var kept bool
	testHookBlock = func() {
		once.Do(func() {
			f.Close()
			kept = pc.own != nil && pc.r == pc.own
		})
	}
	t.Cleanup(func() { testHookBlock = nil })
	f.SegmentSize = 64 << 10 // lone requests: the body passes the 4 KiB reader
	if _, err := f.FetchChunk(0, 0, time.Minute); !errors.Is(err, errFetcherClosed) {
		t.Fatalf("FetchChunk across Close: err = %v, want errFetcherClosed", err)
	}
	if !kept {
		t.Error("Close gave back the reader of the path its caller was reading")
	}
	for _, pc := range f.paths {
		if pc.own != nil || pc.r != nil {
			t.Errorf("path %s kept its reader after the FetchChunk Close overtook", pc.name)
		}
		if st := pc.stats(); st.State == PathDown {
			t.Errorf("path %s went down", pc.name)
		}
	}
}

// TestConnLifeAllocs is the allocation contract of one connection's life:
// a dial, one range request answered and verified, a close — the hedge
// connection's life (hedgeFetch) against an origin whose handler has
// handed its tracker back. Client and server together cost 39 objects,
// 2,428 B: the sockets, the goroutines and the client's path record, none
// of the 4 KiB readers or the tracker, which are recycled (45 and
// 13,436 B when they were not). The budgets are 1.15 times those.
func TestConnLifeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc contract gated without -race")
	}
	const connLifeAllocs, connLifeBytes = 44, 2792
	v := wireVideo()
	s, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := NewFetcher(v, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	o, pol := f.paths[0].set.current(), f.Retry.withDefaults()
	backs := make(chan struct{}, 1)
	testHookTrack = func(fr *front, _ *connTrack, out bool) {
		if fr == s.front && !out {
			backs <- struct{}{}
		}
	}
	t.Cleanup(func() { testHookTrack = nil })
	life := func() {
		if _, err := f.hedgeFetch(o, pol, 0, 0, 0, segBufBlock-1, nil); err != nil {
			t.Fatal(err)
		}
		<-backs
	}
	for i := 0; i < 4; i++ {
		life() // warm the pools
	}
	allocs := testing.AllocsPerRun(50, life)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const lives = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lives; i++ {
		life()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / lives
	t.Logf("one connection's life: %.1f allocs, %.0f B", allocs, bytes)
	if allocs > connLifeAllocs || bytes > connLifeBytes {
		t.Errorf("a connection's life costs %.1f allocs and %.0f B; want at most %d and %d", allocs, bytes, connLifeAllocs, connLifeBytes)
	}
}
