package netmp

// Overload-protection tests, for both owners of the front (eachFront):
// max-connection admission control (excess accepts get 503 without
// disturbing admitted traffic), per-connection request caps, graceful
// drain that finishes in-flight bodies and queued responses, and the
// client-side handling of 503 rejections.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// dialServer opens a raw client connection to the server.
func dialServer(t *testing.T, s *front) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// doManifest issues a manifest request on an open connection and returns
// the response status line.
func doManifest(t *testing.T, conn net.Conn, r *bufio.Reader) string {
	t.Helper()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(conn, "GET /manifest.mpd HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	status, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	// Drain headers and body so the connection is reusable.
	var length int
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if h = strings.TrimSpace(h); h == "" {
			break
		}
		fmt.Sscanf(h, "Content-Length: %d", &length)
	}
	if _, err := io.CopyN(io.Discard, r, int64(length)); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(status)
}

func TestMaxConnsRejectsExcessWithout503ingAdmitted(t *testing.T) {
	eachFront(t, dash.BigBuckBunny(), 0, func(t *testing.T, s *front) {
		s.SetLimits(ServerLimits{MaxConns: 2})

		// Two admitted connections, proven live by a served request each.
		c1, r1 := dialServer(t, s)
		if st := doManifest(t, c1, r1); !strings.Contains(st, "200") {
			t.Fatalf("admitted conn 1 got %q", st)
		}
		c2, r2 := dialServer(t, s)
		if st := doManifest(t, c2, r2); !strings.Contains(st, "200") {
			t.Fatalf("admitted conn 2 got %q", st)
		}

		// The third connection must be turned away with a 503 and closed.
		c3, r3 := dialServer(t, s)
		c3.SetDeadline(time.Now().Add(3 * time.Second))
		status, err := r3.ReadString('\n')
		if err != nil {
			t.Fatalf("reading 503: %v", err)
		}
		if !strings.Contains(status, "503") {
			t.Fatalf("over-limit conn got %q, want 503", status)
		}

		// Admitted connections keep working unimpeded.
		if st := doManifest(t, c1, r1); !strings.Contains(st, "200") {
			t.Errorf("admitted conn stalled after a rejection: %q", st)
		}
		if got := s.OverloadStats().RejectedConns; got != 1 {
			t.Errorf("RejectedConns = %d, want 1", got)
		}

		// Freeing a slot admits the next dial.
		c2.Close()
		time.Sleep(50 * time.Millisecond) // let the handler deregister
		c4, r4 := dialServer(t, s)
		if st := doManifest(t, c4, r4); !strings.Contains(st, "200") {
			t.Errorf("post-release conn got %q", st)
		}
	})
}

func TestMaxRequestsPerConnCapsKeepAlive(t *testing.T) {
	eachFront(t, dash.BigBuckBunny(), 0, func(t *testing.T, s *front) {
		s.SetLimits(ServerLimits{MaxRequestsPerConn: 2})

		conn, r := dialServer(t, s)
		for i := 0; i < 2; i++ {
			if st := doManifest(t, conn, r); !strings.Contains(st, "200") {
				t.Fatalf("request %d got %q", i+1, st)
			}
		}
		// The third request on the same connection must hit a closed socket.
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		io.WriteString(conn, "GET /manifest.mpd HTTP/1.1\r\nHost: t\r\n\r\n")
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatal("capped connection served a third request")
		}
		if got := s.OverloadStats().CappedConns; got != 1 {
			t.Errorf("CappedConns = %d, want 1", got)
		}
		// A fresh connection is unaffected.
		c2, r2 := dialServer(t, s)
		if st := doManifest(t, c2, r2); !strings.Contains(st, "200") {
			t.Errorf("fresh conn got %q", st)
		}
	})
}

func TestDrainFinishesInflightBody(t *testing.T) {
	if testing.Short() {
		t.Skip("drain timing test in -short mode")
	}
	// 4 Mbps: after the shaper's 64 KB burst, a 200 KB body needs ~270ms
	// more — long enough that Drain arrives mid-body.
	eachFront(t, dash.BigBuckBunny(), 4, func(t *testing.T, s *front) {

		conn, r := dialServer(t, s)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		const want = 200_000
		fmt.Fprintf(conn, "GET /seg-l1-c0.m4s HTTP/1.1\r\nHost: t\r\nRange: bytes=0-%d\r\n\r\n", want-1)
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		for {
			h, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(h) == "" {
				break
			}
		}

		// Read the shaped body in the background while Drain runs.
		bodyN := make(chan int64, 1)
		go func() {
			n, _ := io.Copy(io.Discard, r)
			bodyN <- n
		}()
		time.Sleep(60 * time.Millisecond) // body under way
		done := make(chan error, 1)
		go func() { done <- s.Drain() }()

		// The in-flight body must complete in full despite the drain.
		select {
		case n := <-bodyN:
			if n != want {
				t.Errorf("drained body delivered %d bytes, want %d", n, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("body never finished under drain")
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Drain never returned")
		}
		if !s.Draining() {
			t.Error("Draining() false after Drain")
		}
		// New dials are refused once draining.
		if c, err := net.DialTimeout("tcp", s.Addr(), 500*time.Millisecond); err == nil {
			c.Close()
			t.Error("drained server accepted a new connection")
		}
	})
}

func TestDrainKicksIdleKeepAlives(t *testing.T) {
	eachFront(t, dash.BigBuckBunny(), 0, func(t *testing.T, s *front) {
		conn, r := dialServer(t, s)
		if st := doManifest(t, conn, r); !strings.Contains(st, "200") {
			t.Fatalf("setup request got %q", st)
		}
		// The connection now idles in readRequest; Drain must not hang on it.
		done := make(chan error, 1)
		go func() { done <- s.Drain() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Drain hung on an idle keep-alive connection")
		}
	})
}

func TestFetcherRidesOut503Rejections(t *testing.T) {
	if testing.Short() {
		t.Skip("overload ride-through test in -short mode")
	}
	// The primary origin has a single connection slot, held by a squatter
	// for the first 150ms: the fetcher's requests are answered 503, which
	// must be absorbed as transient retries — not kill the path — and the
	// chunk completes once the slot frees.
	video := dash.BigBuckBunny()
	ps, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ss, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	ps.SetLimits(ServerLimits{MaxConns: 1})
	squatter, sr := dialServer(t, ps.front)
	if st := doManifest(t, squatter, sr); !strings.Contains(st, "200") {
		t.Fatalf("squatter got %q", st)
	}

	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pol := fastRetry()
	pol.MaxRedials = 100   // overload is transient; keep knocking
	pol.RequeueBudget = 50 // rejected segments bounce between paths meanwhile
	f.Retry = pol

	time.AfterFunc(150*time.Millisecond, func() { squatter.Close() })
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if ps.OverloadStats().RejectedConns == 0 {
		t.Error("squatter never forced a rejection; the test proves nothing")
	}
	if st := f.PathStats()[0]; st.State == PathDown {
		t.Error("primary declared down over transient 503s")
	}
}

// onFirstLookup runs fn at the source's first lookup.
type onFirstLookup struct {
	bodySource
	once *sync.Once
	fn   func()
}

func (s onFirstLookup) chunk(index, level int, from int64) (chunkBody, error) {
	s.once.Do(s.fn)
	return s.bodySource.chunk(index, level, from)
}

// TestDrainFlushesQueuedRun drains a front while it answers a pipelined
// run of half-block ranges, so responses sit in its write queue between
// requests: a connection holding queued responses is busy, not idle, and
// the handler writes them out before it closes. Drain begins once the
// first request is parsed; in alternate trials that request's lookup
// waits for it, so the drained handler exits with exactly one response
// queued. The client reads whole, byte-exact responses up to the close,
// at least the one in flight when Drain began, and ServedBytes moves by
// exactly the body bytes it read.
func TestDrainFlushesQueuedRun(t *testing.T) {
	video := payloadVideo()
	const index, level, runLen, n = 0, 2, 12, segBufBlock / 2
	id := video.Levels[level].ID
	for trial := 0; trial < 6; trial++ {
		hold := trial%2 == 0
		eachFront(t, video, 0, func(t *testing.T, f *front) {
			parsed := make(chan struct{})
			f.connMu.Lock()
			f.src = onFirstLookup{bodySource: f.src, once: new(sync.Once), fn: func() {
				close(parsed)
				for hold && !f.Draining() {
					time.Sleep(time.Millisecond)
				}
			}}
			f.connMu.Unlock()
			served := f.ServedBytes()
			conn, r := dialServer(t, f)
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			var reqs []byte
			for i := int64(0); i < runLen; i++ {
				reqs = AppendRangeRequest(reqs, id, index, i*n, i*n+n-1)
			}
			if _, err := conn.Write(reqs); err != nil {
				t.Fatal(err)
			}
			<-parsed
			drained := make(chan error, 1)
			go func() { drained <- f.Drain() }()

			var read, whole int64
			for ; whole < runLen; whole++ {
				status, body, err := readResponse(r)
				if err != nil {
					if status != "" || body != nil {
						t.Fatalf("response %d cut: status %q, %d body bytes, %v", whole, status, len(body), err)
					}
					break
				}
				if !strings.Contains(status, "206") || len(body) != n {
					t.Fatalf("response %d: %q with %d body bytes", whole, status, len(body))
				}
				for j, b := range body {
					if w := ChunkBody(index, level, whole*n+int64(j)); b != w {
						t.Fatalf("response %d: body byte %d = %#x, want %#x", whole, j, b, w)
					}
				}
				read += n
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if whole == 0 || hold && whole != 1 {
				t.Errorf("%d of %d responses arrived (held: %v); want the one in flight when Drain began, and only it when held", whole, runLen, hold)
			}
			if got := f.ServedBytes() - served; got != read {
				t.Errorf("ServedBytes moved %d, the client read %d", got, read)
			}
		})
	}
}
