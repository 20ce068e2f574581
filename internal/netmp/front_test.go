package netmp

// The front's contract, stated once for both of its owners: eachFront
// runs a test against an origin and against an edge over a prefilled
// store, so every ChunkServer test that speaks about the listener,
// admission or the request loop also holds EdgeServer to it. Below it,
// the tests only a front built by hand can run: a listener that fails
// and a body source that panics.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// prefill stores every level of video's first chunks under name.
func prefill(store *cache.Cache, name string, video *dash.Video) {
	for c := 0; c < video.NumChunks && c < 4; c++ {
		for l := range video.Levels {
			body := make([]byte, video.ChunkSize(c, l))
			for i := range body {
				body[i] = ChunkBody(c, l, int64(i))
			}
			store.Put(cache.Key{Video: name, Level: l, Chunk: c}, body)
		}
	}
}

// eachFront runs fn as two subtests: against the front of an origin,
// and against the front of an edge serving video's first chunks as
// hits. Both are shaped to rateMbps and closed when the subtest ends.
func eachFront(t *testing.T, video *dash.Video, rateMbps float64, fn func(t *testing.T, f *front)) {
	t.Run("origin", func(t *testing.T) {
		s, err := NewChunkServer(video, rateMbps)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, s.front)
	})
	t.Run("edge", func(t *testing.T) {
		origin, err := NewChunkServer(video, 0)
		if err != nil {
			t.Fatal(err)
		}
		store := cache.New(cache.Config{})
		prefill(store, video.Name, video)
		e, err := NewEdgeServer(video, video.Name, []string{origin.Addr()}, store, EdgePolicy{RateMbps: rateMbps})
		if err != nil {
			origin.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			e.Close()
			origin.Close()
			if got := e.OriginBytes(); got != 0 {
				t.Errorf("edge pulled %d origin bytes over a prefilled store", got)
			}
		})
		fn(t, e.front)
	})
}

// flakyListener fails its first Accepts the way a process out of file
// descriptors does.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// panicOnce is a body source whose first lookup panics; afterwards it
// is the origin's (no stored body, no cache state, no fault).
type panicOnce struct{ done atomic.Bool }

func (p *panicOnce) chunk(int, int, int64) (chunkBody, error) {
	if !p.done.Swap(true) {
		panic("body source bug")
	}
	return chunkBody{}, nil
}

// TestFrontSurvivesAcceptErrorsAndPanics pins the two defects the edge's
// private loop had: a transient Accept error ended it (the edge was deaf
// until the process restarted) and a handler panic took the process
// down. The front retries the one and recovers the other, and counts
// both.
func TestFrontSurvivesAcceptErrorsAndPanics(t *testing.T) {
	video := smallVideo()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(3)
	f := newFront(video, flaky, 0, &panicOnce{})
	defer f.Close()

	// The dial queues in the backlog until the loop has backed off three
	// times; the panicking lookup then drops this connection only.
	conn, r := dialServer(t, f)
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	conn.Write(AppendRangeRequest(nil, 1, 0, 0, 9))
	if line, err := r.ReadString('\n'); err == nil {
		t.Fatalf("panicking handler answered %q", line)
	}
	if got := f.OverloadStats(); got.AcceptRetries != 3 || got.PanicsRecovered != 1 {
		t.Errorf("AcceptRetries = %d, PanicsRecovered = %d; want 3 and 1", got.AcceptRetries, got.PanicsRecovered)
	}
	deadline := time.Now().Add(2 * time.Second)
	for f.CurrentConns() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := f.CurrentConns(); n != 0 {
		t.Errorf("CurrentConns = %d after the panic", n)
	}

	// The front is alive: the next connection is served, byte for byte.
	conn2, r2 := dialServer(t, f)
	conn2.SetDeadline(time.Now().Add(3 * time.Second))
	conn2.Write(AppendRangeRequest(nil, 1, 0, 0, 9))
	client := &pathConn{name: "client", conn: conn2, r: r2}
	n, _, err := client.readHead("206")
	if err != nil || n != 10 {
		t.Fatalf("after the panic: length %d, err %v", n, err)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r2, body); err != nil {
		t.Fatal(err)
	}
	for i, b := range body {
		if b != ChunkBody(0, 0, int64(i)) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, ChunkBody(0, 0, int64(i)))
		}
	}
}

// faultingSource hands every chunk of the source it wraps to one fault.
type faultingSource struct {
	bodySource
	fault FaultKind
	stall time.Duration
}

func (s faultingSource) chunk(index, level int, from int64) (chunkBody, error) {
	b, err := s.bodySource.chunk(index, level, from)
	b.fault, b.stall = s.fault, s.stall
	return b, err
}

// TestFrontFaultContract holds the write path to its fault semantics on
// both kinds, at one byte, one block and one block plus one: the 206 head
// arrives once, whole, before any body byte — after the stall when the
// stall precedes the first block; a premature close truncates at half the
// advertised length (one byte short of a one-byte body); corruption flips
// the first 16 generated bytes (an edge's stored body is never written);
// and ServedBytes moves by exactly the body bytes the client read.
func TestFrontFaultContract(t *testing.T) {
	const stall = 100 * time.Millisecond
	video := payloadVideo()
	const index, level = 0, 2
	size := video.ChunkSize(index, level)
	eachFront(t, video, 0, func(t *testing.T, f *front) {
		clean := f.src
		for _, fault := range []FaultKind{FaultClose, FaultStall, FaultCorrupt} {
			for _, n := range []int64{1, segBufBlock, segBufBlock + 1} {
				// Installed under connMu, which the accept loop takes before
				// the handler that reads it starts.
				f.connMu.Lock()
				f.src = faultingSource{bodySource: clean, fault: fault, stall: stall}
				f.connMu.Unlock()
				served := f.ServedBytes()

				conn, _ := dialServer(t, f)
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				t0 := time.Now()
				conn.Write(AppendRangeRequest(nil, video.Levels[level].ID, index, 0, n-1))
				conn.(*net.TCPConn).CloseWrite() // the handler hangs up after this response
				first := make([]byte, 1)
				if _, err := io.ReadFull(conn, first); err != nil {
					t.Fatalf("%v, %d bytes: %v", fault, n, err)
				}
				firstAt := time.Since(t0)
				rest, err := io.ReadAll(conn)
				if err != nil {
					t.Fatalf("%v, %d bytes: %v", fault, n, err)
				}
				raw := append(first, rest...)

				state := ""
				if _, edge := clean.(*EdgeServer); edge {
					state = "hit"
				}
				head := appendRangeHead(nil, n, 0, n-1, size, state)
				if !strings.HasPrefix(string(raw), string(head)) {
					t.Fatalf("%v, %d bytes: response starts %q, want the head %q", fault, n, raw[:min(len(raw), len(head))], head)
				}
				body := raw[len(head):]
				want := n
				if fault == FaultClose {
					want = min((n+1)/2, n-1)
				}
				if int64(len(body)) != want {
					t.Errorf("%v, %d bytes: read %d body bytes, want %d", fault, n, len(body), want)
				}
				for i, b := range body {
					w := ChunkBody(index, level, int64(i))
					if fault == FaultCorrupt && state == "" && i < 16 {
						w ^= 0xA5
					}
					if b != w {
						t.Fatalf("%v, %d bytes: body byte %d = %#x, want %#x", fault, n, i, b, w)
					}
				}
				if got := f.ServedBytes() - served; got != int64(len(body)) {
					t.Errorf("%v, %d bytes: ServedBytes moved %d, the client read %d", fault, n, got, len(body))
				}
				if fault == FaultStall && n <= segBufBlock && firstAt < stall {
					t.Errorf("%d bytes: the head arrived %v after the request, inside the %v stall", n, firstAt, stall)
				}
			}
		}
	})
}

// TestEdgeWrongLengthBodyIs503 pins the third: the store is shared and
// caller-provided, and the edge used to slice whatever it held with
// bounds taken from the catalog. A body of the wrong length is a failed
// fill — 503, counted, journalled — and the connection keeps serving.
func TestEdgeWrongLengthBodyIs503(t *testing.T) {
	video := smallVideo()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{})
	prefill(store, video.Name, video)
	store.Put(cache.Key{Video: video.Name, Level: 0, Chunk: 1}, make([]byte, 5))
	e, err := NewEdgeServer(video, video.Name, []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tel := obs.New()
	e.Instrument(tel)

	conn, r := dialServer(t, e.front)
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	client := &pathConn{name: "client", conn: conn, r: r}
	conn.Write(AppendRangeRequest(nil, 1, 1, 0, 9))
	if _, _, err := client.readHead("206"); !errors.Is(err, errServerBusy) {
		t.Fatalf("short stored body: err %v, want a 503", err)
	}
	for h := []byte("x"); len(h) != 0; { // readHead stops at the status line
		if h, err = readLine(r); err != nil {
			t.Fatal(err)
		}
	}
	conn.Write(AppendRangeRequest(nil, 1, 0, 0, 9))
	if n, state, err := client.readHead("206"); err != nil || n != 10 || state != "hit" {
		t.Fatalf("next request on the connection: length %d, state %q, err %v", n, state, err)
	}
	if got := e.FillErrors(); got != 1 {
		t.Errorf("FillErrors = %d, want 1", got)
	}
	var journalled bool
	for _, ev := range tel.Journal.Events() {
		if ev.Type == "cache.fill.error" && ev.Chunk == 1 && strings.Contains(ev.Str["error"], "5 bytes") {
			journalled = true
		}
	}
	if !journalled {
		t.Error("no cache.fill.error event for the short body")
	}
}

// TestEdgeCrashRestartClientsRideThrough streams through an edge that is
// crashed mid-chunk and restarted: the two-path fetcher's redials land on
// the same address and the chunk verifies; the store and the fill pool
// belong to the edge, not to the listener generation, and survive.
func TestEdgeCrashRestartClientsRideThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("crash timing test in -short mode")
	}
	video := dash.BigBuckBunny()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{})
	// 8 Mbps: chunk (1, 2) is several hundred ms of shaped body.
	e, err := NewEdgeServer(video, "bbb", []string{origin.Addr()}, store, EdgePolicy{RateMbps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	addr := e.Addr()

	f, err := NewFetcher(video, addr, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pol := fastRetry()
	pol.MaxRedials = 200 // the edge is away for a while; keep knocking
	f.Retry = pol
	if res, err := f.FetchChunk(0, 2, 10*time.Second); err != nil || !res.Verified {
		t.Fatalf("pre-crash fetch: res=%+v err=%v", res, err)
	}
	fills := store.Stats().Fills

	restarted := make(chan error, 1)
	go func() {
		// Crash once the next chunk's shaped body is under way.
		for mid := e.ServedBytes() + 128<<10; e.ServedBytes() < mid && !t.Failed(); {
			time.Sleep(time.Millisecond)
		}
		e.Crash()
		restarted <- e.Restart()
	}()
	res, err := f.FetchChunk(1, 2, 10*time.Second)
	if err != nil || !res.Verified {
		t.Fatalf("fetch across the crash: res=%+v err=%v", res, err)
	}
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	if e.Addr() != addr {
		t.Errorf("Addr changed across the restart: %q -> %q", addr, e.Addr())
	}
	if retries, redials, _, _ := f.faultCounters(); retries == 0 || redials == 0 {
		t.Errorf("the crash cost the client %d retries and %d redials; it missed the fetch", retries, redials)
	}
	// One fill for the crashed chunk however many times the client asked
	// again, and the pre-crash chunk is still a hit on the new generation.
	if got := store.Stats().Fills; got != fills+1 {
		t.Errorf("%d fills for the chunk fetched across the crash, want 1", got-fills)
	}
	if res, err := f.FetchChunk(0, 2, 10*time.Second); err != nil || !res.Verified {
		t.Fatalf("post-restart fetch: res=%+v err=%v", res, err)
	}
	if got := store.Stats().Fills; got != fills+1 {
		t.Errorf("the store did not survive the restart: %d new fills", got-fills-1)
	}
	if len(e.pool) != cap(e.pool) {
		t.Errorf("fill pool holds %d of %d fetchers after the restart", len(e.pool), cap(e.pool))
	}
}

// TestEdgeCloseCancelsFillNotCrash holds the edge's one fill fetcher
// with a slow fill and queues a second fill behind it. Crash cancels
// neither: both chunks reach the store although the connections that
// asked are gone. Close cancels the queued one: it never reaches the
// origin.
func TestEdgeCloseCancelsFillNotCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("fill timing test in -short mode")
	}
	video := smallVideo()
	origin, err := NewChunkServer(video, 1) // 12.5 KB chunks behind a 64 KB burst: ~100 ms a fill once it is spent
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{})
	e, err := NewEdgeServer(video, video.Name, []string{origin.Addr()}, store, EdgePolicy{FillFetchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// ask requests the first bytes of level-1 chunks, each on its own
	// connection, and waits until each has missed in the store (chunk c is
	// the store's c+1-th miss: ask for them in order).
	ask := func(chunks ...int) {
		t.Helper()
		for _, c := range chunks {
			conn, _ := dialServer(t, e.front)
			conn.Write(AppendRangeRequest(nil, 2, c, 0, 9))
			deadline := time.Now().Add(2 * time.Second)
			for store.Stats().Misses < int64(c+1) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	stored := func(c int) bool {
		_, ok := store.Get(cache.Key{Video: video.Name, Level: 1, Chunk: c})
		return ok
	}
	// Spend the origin's burst so every later fill is paced.
	for sent := int64(0); sent < 64*1024; sent += video.ChunkSize(0, 0) {
		conn, r := dialServer(t, origin.front)
		conn.Write(AppendRangeRequest(nil, 1, 0, 0, video.ChunkSize(0, 0)-1))
		io.Copy(io.Discard, io.LimitReader(r, video.ChunkSize(0, 0)))
	}

	ask(0, 1)
	e.Crash() // waits for the handlers, so for both fills
	if !stored(0) || !stored(1) {
		t.Fatalf("fills did not complete across Crash: chunk 0 stored=%v, chunk 1 stored=%v", stored(0), stored(1))
	}
	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}

	ask(2, 3)
	served := origin.ServedBytes()
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if stored(3) {
		t.Error("the fill queued for the pool ran after Close")
	}
	if got, most := origin.ServedBytes()-served, video.ChunkSize(2, 1); got > most {
		t.Errorf("origin served %d bytes after Close began, more than the one fill in flight (%d)", got, most)
	}
}

// TestServersShareInstrumentNames checks the one instrument helper: both
// kinds export the front's series under the same names and the addr
// label, and each adds only its own family.
func TestServersShareInstrumentNames(t *testing.T) {
	video := smallVideo()
	s, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, err := NewEdgeServer(video, video.Name, []string{s.Addr()}, cache.New(cache.Config{}), EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tel := obs.New()
	s.Instrument(tel)
	e.Instrument(tel)
	addrs := []string{s.Addr(), e.Addr()}
	// The limit below counts the edge's two fill-fetcher connections, which
	// the origin's accept loop may not have admitted yet.
	for end := time.Now().Add(3 * time.Second); s.CurrentConns() < 2 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	for _, f := range []*front{s.front, e.front} {
		f.SetLimits(ServerLimits{MaxConns: f.CurrentConns() + 1})
		c1, r1 := dialServer(t, f)
		doManifest(t, c1, r1)
		c2, r2 := dialServer(t, f)
		c2.SetDeadline(time.Now().Add(3 * time.Second))
		if status, err := r2.ReadString('\n'); err != nil || !strings.Contains(status, "503") {
			t.Fatalf("over-limit conn got %q, %v", status, err)
		}
	}
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, addr := range addrs {
		for _, want := range []string{
			`mpdash_server_served_bytes_total{addr="` + addr + `"}`,
			`mpdash_server_active_conns{addr="` + addr + `"}`,
			`mpdash_server_draining{addr="` + addr + `"} 0`,
			`mpdash_server_rejected_conns_total{addr="` + addr + `"} 1`,
			`mpdash_server_accept_retries_total{addr="` + addr + `"} 0`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	origin, edge := addrs[0], addrs[1]
	for want, only := range map[string]string{
		`mpdash_server_injected_faults_total{addr="` + origin + `",kind="reset"}`: `mpdash_server_injected_faults_total{addr="` + edge,
		`cache_edge_served_bytes_total{edge="` + edge + `"}`:                      `cache_edge_served_bytes_total{edge="` + origin,
	} {
		if !strings.Contains(out, want) || strings.Contains(out, only) {
			t.Errorf("want %q and no %q", want, only)
		}
	}
	rejects := 0
	for _, ev := range tel.Journal.Events() {
		if ev.Type == "server.reject" {
			rejects++
		}
	}
	if rejects != 2 {
		t.Errorf("%d server.reject events, want one per kind", rejects)
	}
}

// readResponse reads one response off r: its status line and its
// Content-Length body.
func readResponse(r *bufio.Reader) (status string, body []byte, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	n := -1
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return line, nil, err
		}
		if h = strings.TrimSpace(h); h == "" {
			break
		}
		if v, ok := strings.CutPrefix(h, "Content-Length: "); ok {
			n, _ = strconv.Atoi(v)
		}
	}
	if n < 0 {
		return line, nil, fmt.Errorf("no Content-Length after %q", line)
	}
	body = make([]byte, n)
	_, err = io.ReadFull(r, body)
	return strings.TrimSpace(line), body, err
}

// resetNth hands the source's nth lookup a reset.
type resetNth struct {
	bodySource
	n     int64
	calls *atomic.Int64
}

func (s resetNth) chunk(index, level int, from int64) (chunkBody, error) {
	b, err := s.bodySource.chunk(index, level, from)
	if s.calls.Add(1) == s.n {
		b.fault = FaultReset
	}
	return b, err
}

// TestFrontPipelinedFraming holds the queued write path to HTTP/1.1
// framing on both kinds: one client write carries a one-byte range, a
// range one byte over a block, a malformed Range, a range past the
// chunk, the manifest and a full block; the answers come back in that
// order with byte-exact bodies, and ServedBytes moves by exactly the
// range bodies read. A reset on the third range request of a run still
// delivers the two before it whole.
func TestFrontPipelinedFraming(t *testing.T) {
	video := payloadVideo()
	const index, level = 0, 2
	id, size := video.Levels[level].ID, video.ChunkSize(index, level)
	manifest, err := dash.EncodeMPD(video.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status   string
		from, n  int64  // a 206's range
		wantBody []byte // any other body
	}
	one := answer{status: "206", from: 0, n: 1}
	overBlock := answer{status: "206", from: 1, n: segBufBlock + 1}
	block := answer{status: "206", from: 100, n: segBufBlock}
	ranged := func(a answer) []byte { return AppendRangeRequest(nil, id, index, a.from, a.from+a.n-1) }

	// check reads want off r, in order, and returns the range body bytes.
	check := func(t *testing.T, r *bufio.Reader, want []answer) int64 {
		t.Helper()
		var read int64
		for i, a := range want {
			status, body, err := readResponse(r)
			if err != nil {
				t.Fatalf("answer %d: %v", i, err)
			}
			if !strings.Contains(status, a.status) {
				t.Fatalf("answer %d: status %q, want %s", i, status, a.status)
			}
			if a.status != "206" {
				if string(body) != string(a.wantBody) {
					t.Fatalf("answer %d (%s): body of %d bytes, want %d", i, a.status, len(body), len(a.wantBody))
				}
				continue
			}
			if int64(len(body)) != a.n {
				t.Fatalf("answer %d: %d body bytes, want %d", i, len(body), a.n)
			}
			for j, b := range body {
				if w := ChunkBody(index, level, a.from+int64(j)); b != w {
					t.Fatalf("answer %d: body byte %d = %#x, want %#x", i, j, b, w)
				}
			}
			read += int64(len(body))
		}
		return read
	}

	eachFront(t, video, 0, func(t *testing.T, f *front) {
		served := f.ServedBytes()
		conn, r := dialServer(t, f)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		var reqs []byte
		reqs = append(reqs, ranged(one)...)
		reqs = append(reqs, ranged(overBlock)...)
		reqs = fmt.Appendf(reqs, "GET /seg-l%d-c0000.m4s HTTP/1.1\r\nHost: x\r\nRange: bytes=x-y\r\n\r\n", id)
		reqs = AppendRangeRequest(reqs, id, index, size, size+10)
		reqs = append(reqs, "GET /manifest.mpd HTTP/1.1\r\nHost: x\r\n\r\n"...)
		reqs = append(reqs, ranged(block)...)
		if _, err := conn.Write(reqs); err != nil {
			t.Fatal(err)
		}
		read := check(t, r, []answer{one, overBlock, {status: "400"}, {status: "416"}, {status: "200", wantBody: manifest}, block})
		if got := f.ServedBytes() - served; got != read {
			t.Errorf("ServedBytes moved %d, the client read %d body bytes", got, read)
		}

		f.connMu.Lock()
		f.src = resetNth{bodySource: f.src, n: 3, calls: new(atomic.Int64)}
		f.connMu.Unlock()
		conn2, r2 := dialServer(t, f)
		conn2.SetDeadline(time.Now().Add(5 * time.Second))
		reqs = append(append(ranged(one), ranged(overBlock)...), ranged(block)...)
		if _, err := conn2.Write(reqs); err != nil {
			t.Fatal(err)
		}
		check(t, r2, []answer{one, overBlock})
		if status, _, err := readResponse(r2); err == nil {
			t.Errorf("the reset request was answered %q", status)
		}
	})
}

// TestFrontRendersManifestOnce: a front renders its manifest response on
// the first request and answers every request with it, so requests that
// race to be first all read the whole manifest.
func TestFrontRendersManifestOnce(t *testing.T) {
	video := dash.BigBuckBunny()
	eachFront(t, video, 0, func(t *testing.T, s *front) {
		const clients = 8
		var wg sync.WaitGroup
		sizes := make([][][]int64, clients)
		errs := make([]error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, sizes[i], errs[i] = FetchManifest(s.Addr())
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			for l := range video.Levels {
				for c := 0; c < video.NumChunks; c++ {
					if got := sizes[i][l][c]; got != video.ChunkSize(c, l) {
						t.Fatalf("client %d: level %d chunk %d size %d, want %d", i, l, c, got, video.ChunkSize(c, l))
					}
				}
			}
		}
		if want, _ := dash.EncodeMPD(video.Manifest()); !strings.HasSuffix(string(s.manifestResponse()), string(want)) {
			t.Error("the rendered response does not end in EncodeMPD's manifest")
		}
	})
}

// TestFailedFlushTakesBackServedBytes closes a front while its handler
// holds a pipelined run's first request: the handler queues responses
// on a closed connection, every flush fails, and ServedBytes, which
// counted each block as it was queued, takes all of them back.
func TestFailedFlushTakesBackServedBytes(t *testing.T) {
	video := payloadVideo()
	const index, level, runLen, n = 0, 2, 12, segBufBlock / 2
	id := video.Levels[level].ID
	eachFront(t, video, 0, func(t *testing.T, f *front) {
		parsed := make(chan struct{})
		f.connMu.Lock()
		f.src = onFirstLookup{bodySource: f.src, once: new(sync.Once), fn: func() {
			close(parsed)
			for {
				f.lifeMu.Lock()
				closed := f.lnClosed
				f.lifeMu.Unlock()
				if closed {
					break
				}
				time.Sleep(time.Millisecond)
			}
			f.connMu.Lock() // Close closes the connections under connMu
			f.connMu.Unlock()
		}}
		f.connMu.Unlock()
		served := f.ServedBytes()
		conn, _ := dialServer(t, f)
		var reqs []byte
		for i := int64(0); i < runLen; i++ {
			reqs = AppendRangeRequest(reqs, id, index, i*n, i*n+n-1)
		}
		if _, err := conn.Write(reqs); err != nil {
			t.Fatal(err)
		}
		<-parsed
		f.Close()
		if got := f.ServedBytes() - served; got != 0 {
			t.Errorf("ServedBytes moved %d on a connection closed before any write", got)
		}
	})
}

// TestShapedRangeAllocatesNothing: on a front shaped so that every
// 16 KiB block waits for the bucket, a range request still allocates
// nothing once the connection is warm: the waits sleep on the
// connection's one timer (sleepOn).
func TestShapedRangeAllocatesNothing(t *testing.T) {
	video := payloadVideo()
	const (
		index, level = 0, 2
		n            = 4 * segBufBlock
		rateMbps     = 80 // 1.6 ms a block
	)
	req := AppendRangeRequest(nil, video.Levels[level].ID, index, 0, n-1)
	eachFront(t, video, rateMbps, func(t *testing.T, f *front) {
		conn, r := dialServer(t, f)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		body := make([]byte, n)
		ranges := 0
		get := func() {
			ranges++
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					t.Fatal(err)
				}
				if len(line) <= 2 {
					break
				}
			}
			if _, err := io.ReadFull(r, body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			get() // spend the burst, make the timer, warm the pools
		}
		start, before := time.Now(), ranges
		allocs := testing.AllocsPerRun(20, get)
		bits := (float64((ranges-before)*n) - f.bucket.burst) * 8
		if floor := time.Duration(bits / rateMbps * float64(time.Microsecond)); time.Since(start) < floor {
			t.Fatalf("%d ranges took %v, want at least %v: the shaper did not hold them", ranges-before, time.Since(start), floor)
		}
		if raceEnabled {
			return // sync.Pool drops puts under the race detector
		}
		if allocs != 0 {
			t.Errorf("%v allocs per shaped range request, want 0", allocs)
		}
	})
}
