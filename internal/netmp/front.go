package netmp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/cache"
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

	manifestOnce sync.Once
	manifest     []byte // the whole manifest response; see manifestResponse
}

// bodySource is the seam between the front and what it serves: the
// request loop validates a range request against the catalog and asks
// the source for the chunk behind it, from the range's first byte. An
// error is answered 503.
type bodySource interface {
	chunk(index, level int, from int64) (chunkBody, error)
}

// chunkBody is one resolved chunk, as data the request loop can act on.
type chunkBody struct {
	stored *cache.Body   // the whole chunk from a store, one reference for this response; nil = the ChunkBody generator
	state  string        // X-MPDash-Cache value to advertise; "" = no header
	fault  FaultKind     // misbehaviour to inject into this response
	stall  time.Duration // how long a FaultStall freezes mid-body
}

// connTrack is the front's per-connection record: admission state, the
// request reader, and the write queue, whose arrays are sized once so a
// range request allocates nothing. 206 heads and body blocks (slices of a
// stored body, or pooled fills) wait in vec until flush writes them in
// one writev. A stored body's reference goes into held once its response
// is queued to the last byte, so no intermediate flush drops it. A
// connection takes its tracker from trackPool at its accept, and its
// handler hands it back (putTrack).
type connTrack struct {
	r      *bufio.Reader // the connection's requests; reads nothing between connections
	busy   bool          // mid-request, or holding queued responses
	vec    net.Buffers   // the queue in wire order
	out    net.Buffers   // vec's view for the writev, which consumes it
	body   uint64        // bit i set: vec[i] is payload
	queued int64         // payload bytes in vec
	heads  []byte        // scratch the queued heads are rendered into
	pooled []*[]byte     // the queued pooled blocks, released by flush
	held   []*cache.Body // the queued responses' stored bodies, released by flush
	timer  *time.Timer   // shaper waits and stalls sleep on it (sleepOn)

	heldTo [queueVecs / 2]*cache.Body // held's array: a response queues two vecs at least
}

// The queue is written before it would pass queueMax payload bytes (the
// shaper's burst, and loopback's MTU), its queueVecs iovecs or its head
// scratch; a 206 head with 19-digit numbers is under rangeHeadMax bytes.
const (
	queueMax     = 64 << 10
	queueVecs    = 32
	rangeHeadMax = 192
)

// connTrack.body is a bitmask over vec's indices, which a failed flush
// reads to take back ServedBytes: the queue holds at most 64 iovecs. (A
// negative array length fails the build.)
var _ [64 - queueVecs]struct{}

// trackPool recycles connection trackers, request reader included.
var trackPool = sync.Pool{New: func() any {
	tr := &connTrack{r: bufio.NewReaderSize(nil, 4<<10), vec: make(net.Buffers, 0, queueVecs),
		heads: make([]byte, 0, 8*rangeHeadMax), pooled: make([]*[]byte, 0, queueVecs)}
	tr.held = tr.heldTo[:0]
	return tr
}}

// testHookTrack, nil outside tests, sees every tracker of f as a
// connection takes it (out) and as its handler hands it back.
var testHookTrack func(f *front, tr *connTrack, out bool)

// putTrack hands back the tracker of a handler that has returned from
// serve, whose last flush emptied the queue and released what it held;
// the shaper's timer is idle between sleeps (sleepOn). A handler that
// recovered a panic keeps its tracker: the panic may have cut a flush or
// a sleep short.
func putTrack(tr *connTrack) {
	emptyReader(tr.r)
	if poisonPools {
		poisonBytes(tr.heads[:cap(tr.heads)])
	}
	tr.busy = false
	trackPool.Put(tr)
}

// headBuffered reports whether r holds a complete request head, so that
// parsing the next request cannot block. (A line of blanks also ends a
// head; missing it only flushes early.)
func headBuffered(r *bufio.Reader) bool {
	b, _ := r.Peek(r.Buffered())
	return bytes.Contains(b, []byte("\n\r\n")) || bytes.Contains(b, []byte("\n\n"))
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
// reset (RST), and in-flight shaped writes abort. Without a Restart the
// death is permanent; Restart brings the same address back. Crash
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
		tr := trackPool.Get().(*connTrack)
		tr.r.Reset(conn)
		if testHookTrack != nil {
			testHookTrack(f, tr, true)
		}
		f.conns[conn] = tr
		f.connMu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				// A handler panic is one connection's problem, not the
				// server's: recover, count it, drop the connection, and
				// leave its tracker to the collector.
				recovered := recover() != nil
				f.connMu.Lock()
				if recovered {
					f.ostats.PanicsRecovered++
				}
				delete(f.conns, conn)
				f.connMu.Unlock()
				conn.Close()
				if !recovered {
					if testHookTrack != nil {
						testHookTrack(f, tr, false)
					}
					putTrack(tr)
				}
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
// twice per request: between requests (busy only while responses are
// queued, drain and cap checks) and once a request is parsed (busy on).
// Responses queue until a read could block (no complete request head
// buffered), until writeBody must write, and when the handler exits.
func (f *front) serve(ctx context.Context, conn net.Conn, tr *connTrack) {
	r := tr.r
	defer f.flush(conn, tr)
	for served := 0; ; served++ {
		if !headBuffered(r) && f.flush(conn, tr) != nil {
			return
		}
		f.connMu.Lock()
		tr.busy = len(tr.vec) != 0
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
			f.reply(conn, tr, head400)
			continue
		}
		if manifest {
			if f.flush(conn, tr) != nil {
				return
			}
			if _, err := conn.Write(f.manifestResponse()); err != nil {
				return
			}
			continue
		}
		size := f.Video.ChunkSize(index, level)
		if to < 0 || to >= size {
			to = size - 1
		}
		if from < 0 || from > to {
			f.reply(conn, tr, head416)
			continue
		}
		body, err := f.src.chunk(index, level, from)
		if err != nil {
			// A source that cannot produce the chunk (an edge whose origin
			// set is exhausted) is the server's overload face: transient
			// for the client's supervisor, breaker fuel for its origin set.
			f.reply(conn, tr, head503)
			continue
		}
		if body.stored != nil && testHookHold != nil {
			testHookHold(true, 1)
		}
		if body.fault == FaultReset {
			if body.stored != nil {
				tr.held = append(tr.held, body.stored) // released by the flush
			}
			f.flush(conn, tr) // earlier responses arrive whole
			hardClose(conn)
			return
		}
		err = f.writeBody(ctx, conn, tr, index, level, from, to-from+1, size, body)
		if body.stored != nil {
			tr.held = append(tr.held, body.stored) // queued to its last byte, or cut
		}
		if err != nil {
			return
		}
	}
}

// reply writes a bodiless response after the queue.
func (f *front) reply(conn net.Conn, tr *connTrack, head string) {
	if f.flush(conn, tr) == nil {
		io.WriteString(conn, head)
	}
}

// flush writes the queue in one writev, then releases its pooled blocks
// and the stored bodies of the responses it finished: the kernel holds
// its own copy of what the writev took. The queued payload is in
// ServedBytes already; a failed write takes back the payload pieces, or
// their parts, that did not leave.
func (f *front) flush(conn net.Conn, tr *connTrack) (err error) {
	if len(tr.vec) != 0 {
		tr.out = tr.vec // WriteTo consumes out, leaving what it did not write
		if _, err = tr.out.WriteTo(conn); err != nil {
			for i, p := range tr.out {
				if tr.body>>(len(tr.vec)-len(tr.out)+i)&1 != 0 {
					f.served.Add(-int64(len(p)))
				}
			}
		}
	}
	for _, b := range tr.pooled {
		ReleaseSegBuf(b)
	}
	for _, b := range tr.held {
		b.Release()
		if testHookHold != nil {
			testHookHold(true, -1)
		}
	}
	clear(tr.vec)
	clear(tr.pooled)
	clear(tr.held)
	tr.vec, tr.pooled, tr.held, tr.heads = tr.vec[:0], tr.pooled[:0], tr.held[:0], tr.heads[:0]
	tr.body, tr.queued = 0, 0
	return err
}

// manifestResponse is the 200 response carrying the Video's MPD, head
// and body, rendered on the first manifest request and written whole to
// every one: the Video never changes. It is written unshaped, being
// set-up traffic fetched once a session (about 58 KB for a 256-chunk,
// three-rung video). An edge synthesizes the manifest locally; the asset
// description is the same either way.
func (f *front) manifestResponse() []byte {
	f.manifestOnce.Do(func() {
		body, _ := dash.EncodeMPD(f.Video.Manifest()) // never fails
		f.manifest = fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: application/dash+xml\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	})
	return f.manifest
}

// writeBody queues the 206 head for bytes [from, from+n) of a size-byte
// chunk and the bytes themselves in blocks of up to 16 KiB, through the
// rate shaper: slices of the stored body as they are (cut at its page
// ends), or filled into pooled blocks when there is none. The head goes
// with the first block. Queued bytes never wait: the queue is flushed
// before the shaper or a stall would make them. It applies the chosen mid-body fault: a stall
// freezes at the halfway point, a premature close cuts after half the
// advertised length, and corruption flips a short run of generated
// bytes in the first block (a stored body is shared with its cache and
// never written to).
func (f *front) writeBody(ctx context.Context, conn net.Conn, tr *connTrack, index, level int, from, n, size int64, body chunkBody) error {
	fault := body.fault
	// A premature close stops after roughly half the advertised length
	// (at least one byte short, so single-block bodies truncate too).
	end := n
	if fault == FaultClose {
		if end = (n + 1) / 2; end >= n {
			end = n - 1
		}
	}
	head := func() {
		start := len(tr.heads)
		tr.heads = appendRangeHead(tr.heads, n, from, from+n-1, size, body.state)
		tr.vec = append(tr.vec, tr.heads[start:])
	}
	stalled := false
	for written, m := int64(0), int64(0); written < end; written += m {
		if fault == FaultStall && !stalled && (written >= n/2 || n <= segBufBlock) {
			stalled = true
			if err := f.flush(conn, tr); err != nil {
				return err
			}
			if err := sleepOn(ctx, body.stall, &tr.timer); err != nil {
				return err
			}
		}
		m = min(segBufBlock, end-written)
		var blk []byte
		if body.stored != nil {
			blk = body.stored.Block(from+written, m)
			m = int64(len(blk))
		}
		wait := f.bucket.take(int(m)) != 0
		if wait || tr.queued+m > queueMax || len(tr.vec)+2 > cap(tr.vec) || len(tr.heads)+rangeHeadMax > cap(tr.heads) {
			if err := f.flush(conn, tr); err != nil {
				return err
			}
		}
		if wait {
			if err := f.bucket.takeOn(ctx, int(m), &tr.timer); err != nil {
				return err
			}
		}
		if written == 0 {
			head()
		}
		if body.stored == nil {
			bp := AcquireSegBuf()
			tr.pooled = append(tr.pooled, bp)
			blk = (*bp)[:m]
			fillChunkBody(blk, index, level, from+written)
			if fault == FaultCorrupt && written == 0 {
				for i := range blk[:min(m, 16)] {
					blk[i] ^= 0xA5
				}
			}
		}
		f.served.Add(m) // before a client can read it; a failed flush takes it back
		tr.body |= 1 << len(tr.vec)
		tr.queued += m
		tr.vec = append(tr.vec, blk)
	}
	if end == n {
		return nil
	}
	if end == 0 {
		head() // cut before the first block: the head alone
	}
	return errInjected // the handler's exit flushes what the cut left queued
}
