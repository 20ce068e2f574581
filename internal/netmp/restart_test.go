package netmp

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestCrashRestartSameAddress proves the chaos-timeline origin contract:
// Crash refuses new dials and resets admitted connections, Restart
// brings the *same* address back, and a client that kept the address
// (the way breakers key origins) reconnects and fetches successfully.
func TestCrashRestartSameAddress(t *testing.T) {
	eachFront(t, smallVideo(), 0, func(t *testing.T, s *front) {
		addr := s.Addr()

		conn, r := dialServer(t, s)
		if got := doManifest(t, conn, r); !strings.Contains(got, "200") {
			t.Fatalf("pre-crash manifest: %q", got)
		}

		s.Crash()
		if !s.Crashed() {
			t.Fatal("Crashed() = false after Crash")
		}
		if got := s.Addr(); got != addr {
			t.Fatalf("Addr changed across crash: %q -> %q", addr, got)
		}
		// The admitted connection was reset and new dials must be refused.
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatal("read on reset connection succeeded")
		}
		if c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
			c.Close()
			t.Fatal("dial succeeded while crashed")
		}
		if n := s.CurrentConns(); n != 0 {
			t.Fatalf("CurrentConns = %d after crash quiesce", n)
		}

		// Crash is idempotent.
		s.Crash()

		if err := s.Restart(); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		if s.Crashed() {
			t.Fatal("Crashed() = true after Restart")
		}
		if got := s.Addr(); got != addr {
			t.Fatalf("Addr changed across restart: %q -> %q", addr, got)
		}
		conn2, r2 := dialServer(t, s)
		if got := doManifest(t, conn2, r2); !strings.Contains(got, "200") {
			t.Fatalf("post-restart manifest: %q", got)
		}
	})
}

// TestRestartRequiresCrash rejects Restart on a live server — the only
// legal lifecycle is crash → restart.
func TestRestartRequiresCrash(t *testing.T) {
	s, err := NewChunkServer(smallVideo(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Restart(); err == nil {
		t.Fatal("Restart on a live server succeeded")
	}
}

// TestCrashRestartFetcherFailover runs a real multi-origin Fetcher
// across a crash window — the breaker cycle the chaos timeline exists to
// exercise: crash the primary path's rank-0 origin mid-session, the
// supervisor redials onto the rank-1 origin and fetches keep verifying;
// then Restart rank-0 and fetches continue against the healed tier. The
// fetcher object is never rebuilt — recovery is purely redial + breaker
// state over the stable origin addresses.
func TestCrashRestartFetcherFailover(t *testing.T) {
	video := smallVideo()
	p0, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p1, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	ss, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	f, err := NewFetcherOrigins(video, BreakerPolicy{}, []string{p0.Addr(), p1.Addr()}, []string{ss.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if res, err := f.FetchChunk(0, 0, 5*time.Second); err != nil || !res.Verified {
		t.Fatalf("pre-crash fetch: res=%+v err=%v", res, err)
	}

	p0.Crash()
	// The reset triggers a redial, which fails over to the rank-1 origin
	// well inside the redial budget.
	if res, err := f.FetchChunk(1, 0, 5*time.Second); err != nil || !res.Verified {
		t.Fatalf("fetch during crash (rank-1 failover): res=%+v err=%v", res, err)
	}

	if err := p0.Restart(); err != nil {
		t.Fatal(err)
	}
	for c := 2; c < video.NumChunks; c++ {
		if res, err := f.FetchChunk(c, 0, 5*time.Second); err != nil || !res.Verified {
			t.Fatalf("post-restart fetch chunk %d: res=%+v err=%v", c, res, err)
		}
	}
}

// TestSetFaultProbsMidRun flips fault probabilities on a live server —
// the chaos fault-surge lever: a server started clean begins resetting
// every request after the surge, and serves cleanly again after the
// clear, with cumulative FaultStats preserved across both.
func TestSetFaultProbsMidRun(t *testing.T) {
	s, err := NewChunkServer(smallVideo(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func() (string, error) {
		conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
		if err != nil {
			return "", err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte("GET /seg-l1-c0.m4s HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
			return "", err
		}
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		return string(buf[:n]), err
	}

	if got, err := get(); err != nil || !strings.Contains(got, "206") {
		t.Fatalf("clean fetch: %q err=%v", got, err)
	}

	s.SetFaultProbs(99, 1.0, 0, 0, 0) // surge: reset every request
	if _, err := get(); err == nil {
		t.Fatal("request survived a 100% reset surge")
	}

	s.SetFaultProbs(99, 0, 0, 0, 0) // clear
	if got, err := get(); err != nil || !strings.Contains(got, "206") {
		t.Fatalf("post-clear fetch: %q err=%v", got, err)
	}

	if st := s.FaultStats(); st.Resets == 0 {
		t.Fatalf("FaultStats lost the surge resets: %+v", st)
	}
}
