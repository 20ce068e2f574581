package netmp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// front is the one server front of the package: a loopback listener
// speaking the minimal HTTP/1.1 range protocol, rate-shaped to emulate
// one network path's bandwidth. ChunkServer and EdgeServer each embed
// one and differ only in the bodySource they hand it.
//
// The front protects itself from overload: ServerLimits caps concurrent
// connections (excess accepts get a 503 and are closed without touching
// admitted traffic) and requests per connection; handlers recover from
// panics instead of taking the process down; transient Accept errors
// (EMFILE, ECONNABORTED) are retried with capped backoff rather than
// killing the listener; and Drain stops accepting while letting
// in-flight bodies finish.
//
// For chaos orchestration the front can also die and come back: Crash
// stops the listener and resets every admitted connection (the way a
// machine loss looks to clients), and Restart re-listens on the same
// address, so client-side breakers exercise their full
// open → half-open → failback cycle against one stable identity.
type front struct {
	Video *dash.Video

	addr   string // stable listen address, identical across restarts
	src    bodySource
	bucket *TokenBucket
	wg     sync.WaitGroup
	served atomic.Int64

	// lifeMu guards the listener generation: the current listener and
	// write-cancel function, whether the listener is closed, and the
	// crashed flag. It is leaf-level: never acquire another server lock
	// while holding it. The generation's context itself travels as a
	// parameter into acceptLoop/serve/writeBody so an old generation can
	// never observe a new generation's state.
	lifeMu   sync.Mutex
	ln       net.Listener
	lnClosed bool
	lnErr    error
	crashed  bool
	cancel   context.CancelFunc

	connMu   sync.Mutex
	conns    map[net.Conn]*connTrack
	limits   ServerLimits
	draining bool
	ostats   OverloadStats
	sink     obs.Sink // telemetry journal (nil = off); guarded by connMu
}

// bodySource is the seam between the front and what it serves: the
// request loop validates a range request against the catalog and asks
// the source for the chunk behind it. An error is answered 503.
type bodySource interface {
	chunk(index, level int) (chunkBody, error)
}

// chunkBody is one resolved chunk, as data the request loop can act on.
type chunkBody struct {
	bytes []byte        // the whole chunk in memory; nil = the deterministic ChunkBody generator
	state string        // X-MPDash-Cache value to advertise; "" = no header
	fault FaultKind     // misbehaviour to inject into this response
	stall time.Duration // how long a FaultStall freezes mid-body
}

// connTrack is the front's per-connection record: admission state, and
// the response scratch a range request reuses so it allocates nothing.
type connTrack struct {
	busy bool        // mid-request (between parsed request and written response)
	head []byte      // the 206 head; emptied once it is on the wire
	vec  [2][]byte   // head and first block, written as one
	out  net.Buffers // vec's view for the writev, which consumes it
}

// ServerLimits is a server's overload-protection configuration. Zero
// fields mean unlimited.
type ServerLimits struct {
	// MaxConns caps concurrently admitted connections; excess accepts
	// receive "503 Service Unavailable" and are closed.
	MaxConns int
	// MaxRequestsPerConn closes a keep-alive connection after it has
	// served this many requests, bounding per-connection state lifetime.
	MaxRequestsPerConn int
}

// OverloadStats counts a server's self-protection actions.
type OverloadStats struct {
	// RejectedConns counts accepts refused with a 503 under MaxConns
	// pressure.
	RejectedConns int64
	// CappedConns counts connections closed for reaching
	// MaxRequestsPerConn.
	CappedConns int64
	// PanicsRecovered counts handler panics absorbed (connection dropped,
	// server alive).
	PanicsRecovered int64
	// AcceptRetries counts transient Accept errors absorbed with backoff.
	AcceptRetries int64
}

// errInjected marks handler exits caused by an injected fault (the
// connection is torn down, which is the point).
var errInjected = errors.New("netmp: injected fault")

// listenFront starts a front for video on a loopback port, shaped to
// rateMbps (non-positive = unshaped).
func listenFront(video *dash.Video, rateMbps float64, src bodySource) (*front, error) {
	if err := video.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netmp: listen: %w", err)
	}
	return newFront(video, ln, rateMbps, src), nil
}

// newFront starts a front on a listener the caller provides.
func newFront(video *dash.Video, ln net.Listener, rateMbps float64, src bodySource) *front {
	ctx, cancel := context.WithCancel(context.Background())
	f := &front{
		Video:  video,
		addr:   ln.Addr().String(),
		src:    src,
		ln:     ln,
		bucket: NewTokenBucket(rateMbps*1e6/8, 64*1024),
		cancel: cancel,
		conns:  make(map[net.Conn]*connTrack),
	}
	f.wg.Add(1)
	go f.acceptLoop(ln, ctx)
	return f
}

// Addr returns the server's listen address. It is stable across
// Crash/Restart cycles — the identity clients dial.
func (f *front) Addr() string { return f.addr }

// ServedBytes returns the total payload bytes written to clients.
func (f *front) ServedBytes() int64 { return f.served.Load() }

// SetRateMbps changes the path's shaped rate in place (non-positive =
// unshaped), emulating fades and recoveries without restarting the
// server.
func (f *front) SetRateMbps(mbps float64) {
	f.bucket.SetRate(mbps * 1e6 / 8)
}

// SetLimits installs the server's overload-protection limits; safe to
// call while serving.
func (f *front) SetLimits(l ServerLimits) {
	f.connMu.Lock()
	f.limits = l
	f.connMu.Unlock()
}

// OverloadStats returns a snapshot of the server's self-protection
// counters.
func (f *front) OverloadStats() OverloadStats {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	return f.ostats
}

// CurrentConns returns the number of currently admitted connections —
// the live admission gauge population runs assert MaxConns behaviour
// against, instead of inferring it from 503 counts.
func (f *front) CurrentConns() int {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	return len(f.conns)
}

// Draining reports whether Drain has been called.
func (f *front) Draining() bool {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	return f.draining
}

// journal returns the telemetry sink under connMu (nil = off).
func (f *front) journal() obs.Sink {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	return f.sink
}

// closeListener closes the current generation's listener exactly once
// and remembers the error. Safe to call repeatedly and across
// generations.
func (f *front) closeListener() error {
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	if !f.lnClosed {
		f.lnErr = f.ln.Close()
		f.lnClosed = true
	}
	return f.lnErr
}

// cancelWrites cancels the current generation's write context,
// unblocking shaped writes and injected stalls.
func (f *front) cancelWrites() {
	f.lifeMu.Lock()
	cancel := f.cancel
	f.lifeMu.Unlock()
	cancel()
}

// Crashed reports whether the server is between a Crash and a Restart.
func (f *front) Crashed() bool {
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	return f.crashed
}

// crashQuiesce is how long Crash waits for in-flight handlers to notice
// their reset connections before returning anyway.
const crashQuiesce = 2 * time.Second

// Crash kills the server the way a machine loss looks from outside: the
// listener closes (new dials are refused), every admitted connection is
// reset (RST), and in-flight shaped writes abort. Unlike Blackhole the
// death is recoverable — Restart brings the same address back. Crash
// waits (bounded) for the reset handlers to exit so a crash→restart
// sequence observes a quiet server in between. Idempotent.
func (f *front) Crash() {
	f.lifeMu.Lock()
	if f.crashed {
		f.lifeMu.Unlock()
		return
	}
	f.crashed = true
	if !f.lnClosed {
		f.lnErr = f.ln.Close()
		f.lnClosed = true
	}
	f.cancel()
	f.lifeMu.Unlock()
	f.resetConns()
	deadline := time.Now().Add(crashQuiesce)
	for time.Now().Before(deadline) {
		if f.CurrentConns() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// resetConns drops every admitted connection with an RST.
func (f *front) resetConns() {
	f.connMu.Lock()
	for c := range f.conns {
		hardClose(c)
	}
	f.connMu.Unlock()
}

// Restart brings a crashed server back on its original address with a
// fresh listener and write context; counters (served bytes, overload
// stats) and everything behind the body source carry over. Returns an
// error when the server is not crashed or the address cannot be re-bound.
func (f *front) Restart() error {
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	if !f.crashed {
		return fmt.Errorf("netmp: restart: server %s is not crashed", f.addr)
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return fmt.Errorf("netmp: restart %s: %w", f.addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.ln, f.lnClosed, f.crashed = ln, false, false
	f.cancel = cancel
	f.wg.Add(1)
	go f.acceptLoop(ln, ctx)
	return nil
}

// Drain gracefully retires the server: the listener closes (new dials
// are refused), idle keep-alive connections are kicked, and connections
// mid-request finish writing their current body before closing. Drain
// blocks until every handler has exited; Close afterwards is still
// required (and cheap).
func (f *front) Drain() error {
	f.connMu.Lock()
	f.draining = true
	sink := f.sink
	idle := make([]net.Conn, 0, len(f.conns))
	active := len(f.conns)
	for c, tr := range f.conns {
		if !tr.busy {
			idle = append(idle, c)
		}
	}
	f.connMu.Unlock()
	if sink != nil {
		sink.Emit(obs.NewEvent("server.drain").WithStr("addr", f.addr).
			WithNum("active_conns", float64(active)))
	}
	err := f.closeListener()
	for _, c := range idle {
		c.Close() // parked in readChunkRequest; the handler exits on the error
	}
	f.wg.Wait()
	return err
}

// Blackhole kills the path permanently mid-session: the listener closes
// so client redials are refused, and every active connection is reset.
// The server object remains valid (Close is still required).
func (f *front) Blackhole() {
	f.closeListener()
	f.cancelWrites() // unblock shaped writes
	f.resetConns()
}

// Close stops the server and waits for handlers to finish. Active
// connections are closed too — a handler parked in readChunkRequest on
// an idle keep-alive connection would otherwise park Close forever.
func (f *front) Close() error {
	f.cancelWrites()
	err := f.closeListener()
	f.connMu.Lock()
	for c := range f.conns {
		c.Close()
	}
	f.connMu.Unlock()
	f.wg.Wait()
	return err
}

// acceptBackoffMax caps the accept-retry backoff on transient errors.
const acceptBackoffMax = time.Second

// acceptLoop accepts connections for one listener generation. The
// listener and write-cancel context are captured as parameters (not read
// from the struct) so a Crash/Restart cycle cannot hand this generation
// the next generation's listener.
func (f *front) acceptLoop(ln net.Listener, ctx context.Context) {
	defer f.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Only a closed listener (or server shutdown) ends the loop.
			// Anything else — EMFILE, ECONNABORTED, a momentary kernel
			// hiccup — is retried with capped backoff: a transient error
			// must not permanently kill the listener.
			if errors.Is(err, net.ErrClosed) || ctx.Err() != nil {
				return
			}
			f.connMu.Lock()
			f.ostats.AcceptRetries++
			f.connMu.Unlock()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = 5 * time.Millisecond

		// Admission control: a Crash or Close racing this accept must not
		// leave an admitted connection its sweep missed, so the check
		// happens under connMu — both cancel ctx before sweeping (under
		// connMu), so if ctx is still live here the sweep has not run yet
		// and will close this connection. Under MaxConns pressure the
		// excess accept is turned away with a 503 so admitted connections
		// keep their bandwidth and file descriptors.
		f.connMu.Lock()
		if ctx.Err() != nil {
			f.connMu.Unlock()
			hardClose(conn)
			continue
		}
		if f.limits.MaxConns > 0 && len(f.conns) >= f.limits.MaxConns {
			f.ostats.RejectedConns++
			sink := f.sink
			f.connMu.Unlock()
			if sink != nil {
				sink.Emit(obs.NewEvent("server.reject").WithStr("addr", f.addr).
					WithStr("peer", conn.RemoteAddr().String()))
			}
			go reject503(conn)
			continue
		}
		tr := &connTrack{}
		f.conns[conn] = tr
		f.connMu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				// A handler panic is one connection's problem, not the
				// server's: recover, count it, drop the connection.
				recovered := recover() != nil
				f.connMu.Lock()
				if recovered {
					f.ostats.PanicsRecovered++
				}
				delete(f.conns, conn)
				f.connMu.Unlock()
				conn.Close()
			}()
			f.serve(ctx, conn, tr)
		}()
	}
}

// reject503 answers one over-limit connection and closes it.
func reject503(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(time.Second))
	io.WriteString(conn, "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
	conn.Close()
}

// hardClose drops a connection with an RST (SO_LINGER 0) instead of a
// clean FIN, the way a dying radio link looks to the peer.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// serve handles one keep-alive connection, honoring the per-connection
// request cap and the drain flag (finish the in-flight response, then
// close instead of waiting for the next request). ctx is the listener
// generation's write context, cancelled by Crash/Close. connMu is taken
// twice per request: between requests (busy off, drain and cap checks)
// and once a request is parsed (busy on).
func (f *front) serve(ctx context.Context, conn net.Conn, tr *connTrack) {
	r := bufio.NewReader(conn)
	for served := 0; ; served++ {
		f.connMu.Lock()
		tr.busy = false
		stop := f.draining
		if !stop && f.limits.MaxRequestsPerConn > 0 && served >= f.limits.MaxRequestsPerConn {
			f.ostats.CappedConns++
			stop = true
		}
		f.connMu.Unlock()
		if stop {
			return
		}
		index, level, from, to, manifest, bad, ok := readChunkRequest(r, f.Video)
		if !ok {
			return
		}
		f.connMu.Lock()
		tr.busy = true
		f.connMu.Unlock()
		if bad {
			io.WriteString(conn, head400)
			continue
		}
		if manifest {
			if err := writeManifest(conn, f.Video); err != nil {
				return
			}
			continue
		}
		size := f.Video.ChunkSize(index, level)
		if to < 0 || to >= size {
			to = size - 1
		}
		if from < 0 || from > to {
			io.WriteString(conn, head416)
			continue
		}
		body, err := f.src.chunk(index, level)
		if err != nil {
			// A source that cannot produce the chunk (an edge whose origin
			// set is exhausted) is the server's overload face: transient
			// for the client's supervisor, breaker fuel for its origin set.
			io.WriteString(conn, head503)
			continue
		}
		if body.fault == FaultReset {
			hardClose(conn)
			return
		}
		n := to - from + 1
		tr.head = appendRangeHead(tr.head[:0], n, from, to, size, body.state)
		if err := f.writeBody(ctx, conn, tr, index, level, from, n, body); err != nil {
			if len(tr.head) != 0 {
				conn.Write(tr.head) // a fault before the first block still delivers the head
			}
			return
		}
	}
}

// writeManifest serves v's MPD (unshaped: manifests are tiny). An edge
// synthesizes the manifest locally; the asset description is the same
// either way.
func writeManifest(w io.Writer, v *dash.Video) error {
	body, err := dash.EncodeMPD(v.Manifest())
	if err != nil {
		return err
	}
	msg := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: application/dash+xml\r\nContent-Length: %d\r\n\r\n", len(body))
	_, err = w.Write(append(msg, body...))
	return err
}

// writeBody streams bytes [from, from+n) of the chunk through the rate
// shaper in 16 KiB blocks, one write each — the first carries tr.head
// with it: slices of the resolved body as they are, or filled into a
// pooled block when there is none. It applies the chosen mid-body fault:
// a stall freezes at the halfway point, a premature close stops after
// half the advertised length, and corruption flips a short run of
// generated bytes in the first block (a resolved body is shared with its
// cache and never written to).
func (f *front) writeBody(ctx context.Context, conn net.Conn, tr *connTrack, index, level int, from, n int64, body chunkBody) error {
	const block = segBufBlock
	var buf []byte
	if body.bytes == nil {
		bp := AcquireSegBuf()
		defer ReleaseSegBuf(bp)
		buf = *bp
	}
	fault := body.fault
	off := from
	remaining := n
	stalled := false
	// A premature close stops after roughly half the advertised length
	// (at least one byte short, so single-block bodies truncate too).
	closeAt := n
	if fault == FaultClose {
		if closeAt = (n + 1) / 2; closeAt >= n {
			closeAt = n - 1
		}
	}
	for remaining > 0 {
		written := n - remaining
		if fault == FaultStall && !stalled && (written >= n/2 || n <= block) {
			stalled = true
			select {
			case <-time.After(body.stall):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if fault == FaultClose && written >= closeAt {
			return errInjected
		}
		m := int64(block)
		if m > remaining {
			m = remaining
		}
		if fault == FaultClose && m > closeAt-written {
			m = closeAt - written
		}
		var blk []byte
		if body.bytes != nil {
			blk = body.bytes[off : off+m]
		} else {
			blk = buf[:m]
			fillChunkBody(blk, index, level, off)
			if fault == FaultCorrupt && off == from {
				for i := int64(0); i < m && i < 16; i++ {
					blk[i] ^= 0xA5
				}
			}
		}
		if err := f.bucket.Take(ctx, int(m)); err != nil {
			return err
		}
		f.served.Add(m) // before a client can read it; a failed write takes it back
		var err error
		if len(tr.head) != 0 {
			tr.out = append(tr.vec[:0], tr.head, blk)
			_, err = tr.out.WriteTo(conn)
			tr.head = tr.head[:0]
		} else {
			_, err = conn.Write(blk)
		}
		if err != nil {
			f.served.Add(-m)
			return err
		}
		off += m
		remaining -= m
	}
	return nil
}
