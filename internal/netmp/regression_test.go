package netmp

// Regression tests for fixed defects: the secondary controller's one-
// segment-per-tick throughput cap, silent Range mis-parses,
// case-sensitive header matching, a manifest fetch with no deadline, a
// 206 of the wrong length passing as verified, and an oversized 206
// drained without bound.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
)

// TestSecondarySaturatesUnderPressure pins the fix for the controller
// loop that claimed at most one 32 KiB segment per 20 ms tick (~13 Mbps
// ceiling regardless of capacity). With a starved primary and an
// unshaped secondary under an immediate deadline, the secondary must
// move strictly more segments than one-per-tick could.
func TestSecondarySaturatesUnderPressure(t *testing.T) {
	_, _, f := rig(t, 1, 0) // primary 1 Mbps, secondary unshaped
	res, err := f.FetchChunk(0, 4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("verification failed")
	}
	segs := int(res.SecondaryBytes / DefaultSegmentSize)
	ticks := int(res.Duration / controllerTick)
	if segs <= ticks+2 {
		t.Errorf("secondary moved %d segments in %d ticks (%v): still rate-capped at one per tick",
			segs, ticks, res.Duration)
	}
}

// rawRequest sends one raw HTTP request and returns the status line.
func rawRequest(t *testing.T, addr, req string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("reading status: %v", err)
	}
	return strings.TrimSpace(status)
}

func TestMalformedRangeRejected(t *testing.T) {
	eachFront(t, dash.BigBuckBunny(), 0, func(t *testing.T, s *front) {
		for _, rng := range []string{
			"bytes=abc-100", // non-numeric start: used to be silently read as 0
			"bytes=0-xyz",   // non-numeric end
			"bytes=100",     // missing dash
			"smoots=0-100",  // wrong unit
		} {
			req := fmt.Sprintf("GET /seg-l1-c0000.m4s HTTP/1.1\r\nHost: x\r\nRange: %s\r\n\r\n", rng)
			if status := rawRequest(t, s.Addr(), req); !strings.Contains(status, "400") {
				t.Errorf("Range %q: status %q, want 400", rng, status)
			}
		}
	})
}

func TestHeaderFieldsCaseInsensitive(t *testing.T) {
	// RFC 9110 field names are case-insensitive: a lowercase range header
	// must be honored, not ignored.
	video := dash.BigBuckBunny()
	s, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := "GET /seg-l1-c0000.m4s HTTP/1.1\r\nHost: x\r\nrange: BYTES=0-99\r\n\r\n"
	if status := rawRequest(t, s.Addr(), req); !strings.Contains(status, "206") {
		t.Errorf("lowercase range header: status %q, want 206", status)
	}
}

func TestPathStatsAccessor(t *testing.T) {
	_, _, f := rig(t, 0, 0)
	if _, err := f.FetchChunk(0, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.PathStats()
	if len(st) != 2 {
		t.Fatalf("got %d paths", len(st))
	}
	if st[0].Name != "primary" || st[1].Name != "secondary" {
		t.Errorf("names %q/%q", st[0].Name, st[1].Name)
	}
	if st[0].State != PathUp || st[1].State != PathUp {
		t.Errorf("healthy rig reports states %v/%v", st[0].State, st[1].State)
	}
	if st[0].Bytes == 0 {
		t.Error("primary byte count not tracked")
	}
	if st[0].Retries != 0 || st[0].Redials != 0 || st[0].DownFor != 0 {
		t.Errorf("healthy rig reports faults: %+v", st[0])
	}
	if s := PathDown.String(); s != "down" {
		t.Errorf("PathDown.String() = %q", s)
	}
}

// TestFetchManifestTimesOutOnSilentServer pins the fix for the bootstrap
// that set no deadline: against a server that accepts and never answers,
// FetchManifest must fail on the default IOTimeout (2 s), not wait forever.
func TestFetchManifestTimesOutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never answered, until the listener closes
		}
	}()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, _, err := FetchManifest(ln.Addr().String())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want a deadline error", err)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Errorf("FetchManifest took %v to give up, want the 2 s IOTimeout", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FetchManifest still blocked after 5 s on a silent server")
	}
}

// fakeOrigin serves range requests on a loopback port, answering each
// with answer(c, req, ...), req counting every connection's requests from
// 1, until answer fails or the client hangs up. It stops when the test
// ends.
func fakeOrigin(t *testing.T, video *dash.Video, answer func(c net.Conn, req int64, index, level int, from, to int64) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	var conns sync.Map
	t.Cleanup(func() {
		conns.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true })
	})
	var reqs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Store(c, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					index, level, from, to, _, _, ok := readChunkRequest(r, video)
					if !ok || answer(c, reqs.Add(1), index, level, from, to) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// wrongLengthOrigin answers every range request with a 206 whose body is
// the requested range's correct bytes, but length(n) of them for an
// n-byte range.
func wrongLengthOrigin(t *testing.T, video *dash.Video, length func(n int64) int64) string {
	return fakeOrigin(t, video, func(c net.Conn, _ int64, index, level int, from, to int64) error {
		m := length(to - from + 1)
		resp := appendRangeHead(nil, m, from, from+m-1, video.ChunkSize(index, level), "")
		body := make([]byte, m)
		fillChunkBody(body, index, level, from)
		_, err := c.Write(append(resp, body...))
		return err
	})
}

// TestWrongLength206IsNotVerified pins the fix for a client that read
// Content-Length bytes and never compared them with the range it asked
// for: an origin answering every range with its first half passed as a
// verified chunk of half the size, and an edge over it stored a full
// body it had never received. A short 206 is read out and charged as
// corrupt, a long one charged as a read fault, its body unread
// (TestOversized206IsNotRead); either way the chunk fails, and the edge
// answers 503.
func TestWrongLength206IsNotVerified(t *testing.T) {
	video := dash.BigBuckBunny()
	pol := fastRetry()
	pol.SegmentBudget, pol.RequeueBudget, pol.MaxRedials = 2, 1, 1
	for _, tc := range []struct {
		name   string
		length func(n int64) int64
	}{
		{"half", func(n int64) int64 { return n / 2 }},
		{"one byte long", func(n int64) int64 { return n + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := wrongLengthOrigin(t, video, tc.length)
			f, err := NewFetcher(video, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.Retry = pol
			res, err := f.FetchChunk(0, 0, 3*time.Second)
			if err == nil {
				t.Fatalf("FetchChunk succeeded: verified=%v with %d+%d bytes of %d", res.Verified, res.PrimaryBytes, res.SecondaryBytes, res.Size)
			}
			if got := res.PrimaryBytes + res.SecondaryBytes; got != 0 {
				t.Errorf("%d bytes of wrong-length 206s counted as verified", got)
			}

			e, err := NewEdgeServer(video, video.Name, []string{addr}, cache.New(cache.Config{}),
				EdgePolicy{Retry: pol, FillWindow: 3 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			conn, r := dialServer(t, e.front)
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			conn.Write(AppendRangeRequest(nil, video.Levels[0].ID, 0, 0, 9))
			client := &pathConn{name: "client", conn: conn, r: r}
			if _, _, err := client.readHead("206"); !errors.Is(err, errServerBusy) {
				t.Errorf("edge over a wrong-length origin: err %v, want a 503", err)
			}
			if got := e.FillErrors(); got < 1 {
				t.Errorf("FillErrors = %d, want the failed fill counted", got)
			}
		})
	}
}

// TestOversized206IsNotRead pins the fix for a client that read a 206 to
// its end whatever its Content-Length said: an origin that answered a
// 16 KiB range with a 1 TiB length and streamed held a FetchChunk with a
// 2 s window for as long as it streamed. A 206 longer than the range
// asked for is a read fault: charged, its connection redialled, its body
// never read.
func TestOversized206IsNotRead(t *testing.T) {
	video := dash.BigBuckBunny()
	addr := fakeOrigin(t, video, func(c net.Conn, _ int64, index, level int, from, to int64) error {
		const huge = 1 << 40
		if _, err := c.Write(appendRangeHead(nil, huge, from, from+huge-1, huge, "")); err != nil {
			return err
		}
		block := make([]byte, segBufBlock)
		for off := from; ; off += segBufBlock {
			fillChunkBody(block, index, level, off)
			if _, err := c.Write(block); err != nil {
				return err
			}
		}
	})
	f, err := NewFetcher(video, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize, f.Retry = 16<<10, fastRetry()
	f.Retry.SegmentBudget, f.Retry.RequeueBudget = 1, 1
	type outcome struct {
		res *FetchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.FetchChunk(0, 0, 2*time.Second)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("FetchChunk succeeded over oversized 206s: %d+%d bytes", o.res.PrimaryBytes, o.res.SecondaryBytes)
		}
		if got := o.res.PrimaryBytes + o.res.SecondaryBytes; got != 0 {
			t.Errorf("%d bytes of oversized 206s counted as verified", got)
		}
		if o.res.Retries == 0 || o.res.Redials == 0 {
			t.Errorf("retries %d, redials %d: want each oversized 206 charged and its connection redialled", o.res.Retries, o.res.Redials)
		}
		if o.res.WastedBytes != 0 {
			t.Errorf("%d bytes of oversized bodies read, want none", o.res.WastedBytes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FetchChunk still reading an oversized 206 after 10 s")
	}
}
