package netmp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// ChunkServer serves DASH chunk bytes over a minimal HTTP/1.1 on one
// listener, rate-shaped to emulate one network path's bandwidth. Chunk
// contents are deterministic (a function of the byte offset), so clients
// can verify multipath reassembly byte-for-byte. An optional FaultPlan
// makes the server misbehave on purpose (resets, stalls, premature
// closes, corruption, blackouts) to exercise the client-side path
// supervisor.
//
// The server protects itself from overload: ServerLimits caps concurrent
// connections (excess accepts get a 503 and are closed without touching
// admitted traffic) and requests per connection; handlers recover from
// panics instead of taking the process down; transient Accept errors
// (EMFILE, ECONNABORTED) are retried with capped backoff rather than
// killing the listener; and Drain stops accepting while letting
// in-flight bodies finish.
//
// For chaos orchestration the server can also die and come back: Crash
// stops the listener and resets every admitted connection (the way a
// machine loss looks to clients), and Restart re-listens on the same
// address, so client-side breakers exercise their full
// open → half-open → failback cycle against one stable origin identity.
type ChunkServer struct {
	Video *dash.Video

	addr    string // stable listen address, identical across restarts
	bucket  *TokenBucket
	wg      sync.WaitGroup
	start   time.Time
	mu      sync.Mutex
	served  int64
	chunkSz func(index, level int) int64

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

	clk Clock // injectable wall clock (nil = time.Now)

	plan    *FaultPlan
	faultMu sync.Mutex
	faultRN *rand.Rand
	reqN    int64
	fstats  FaultStats
}

// connTrack is the server's per-connection admission record.
type connTrack struct {
	busy bool // mid-request (between parsed request and flushed response)
}

// ServerLimits is the ChunkServer's overload-protection configuration.
// Zero fields mean unlimited.
type ServerLimits struct {
	// MaxConns caps concurrently admitted connections; excess accepts
	// receive "503 Service Unavailable" and are closed.
	MaxConns int
	// MaxRequestsPerConn closes a keep-alive connection after it has
	// served this many requests, bounding per-connection state lifetime.
	MaxRequestsPerConn int
}

// OverloadStats counts the server's self-protection actions.
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

// NewChunkServer starts a server on a loopback port, shaped to rateMbps
// (non-positive = unshaped).
func NewChunkServer(video *dash.Video, rateMbps float64) (*ChunkServer, error) {
	return NewChunkServerWithFaults(video, rateMbps, nil)
}

// NewChunkServerWithFaults starts a shaped server that injects faults
// according to plan (nil = no faults).
func NewChunkServerWithFaults(video *dash.Video, rateMbps float64, plan *FaultPlan) (*ChunkServer, error) {
	return newChunkServerClocked(video, rateMbps, plan, nil)
}

// newChunkServerClocked is the constructor with an injectable clock
// (nil = time.Now), used by tests that need deterministic fault windows
// and telemetry timestamps.
func newChunkServerClocked(video *dash.Video, rateMbps float64, plan *FaultPlan, clk Clock) (*ChunkServer, error) {
	if err := video.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netmp: listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &ChunkServer{
		Video:   video,
		addr:    ln.Addr().String(),
		ln:      ln,
		bucket:  newTokenBucketClocked(rateMbps*1e6/8, 64*1024, clk),
		cancel:  cancel,
		clk:     clk,
		start:   clk.now(),
		chunkSz: video.ChunkSize,
		conns:   make(map[net.Conn]*connTrack),
		plan:    plan,
	}
	if plan != nil {
		seed := plan.Seed
		if seed == 0 {
			seed = 1
		}
		s.faultRN = rand.New(rand.NewSource(seed))
	}
	s.wg.Add(1)
	go s.acceptLoop(ln, ctx)
	return s, nil
}

// Addr returns the server's listen address. It is stable across
// Crash/Restart cycles — the origin identity clients dial.
func (s *ChunkServer) Addr() string { return s.addr }

// ServedBytes returns the total payload bytes written.
func (s *ChunkServer) ServedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// FaultStats returns a snapshot of the faults injected so far.
func (s *ChunkServer) FaultStats() FaultStats {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.fstats
}

// SetFaultProbs replaces the per-request fault probabilities mid-run —
// the chaos-timeline "fault surge" and "fault clear" lever. A server
// started without a FaultPlan gains one (seeded with seed, or 1 when 0);
// a server that already has a plan keeps its draw stream, script,
// blackouts and level filter, only the probabilities change. Cumulative
// FaultStats are preserved either way.
func (s *ChunkServer) SetFaultProbs(seed int64, reset, stall, closeProb, corrupt float64) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.plan == nil {
		s.plan = &FaultPlan{Seed: seed}
	}
	if s.faultRN == nil {
		if seed == 0 {
			seed = 1
		}
		s.faultRN = rand.New(rand.NewSource(seed))
	}
	s.plan.ResetProb = reset
	s.plan.StallProb = stall
	s.plan.CloseProb = closeProb
	s.plan.CorruptProb = corrupt
}

// SetRateMbps changes the path's shaped rate in place (non-positive =
// unshaped), emulating fades and recoveries without restarting the
// server.
func (s *ChunkServer) SetRateMbps(mbps float64) {
	s.bucket.SetRate(mbps * 1e6 / 8)
}

// SetLimits installs the server's overload-protection limits; safe to
// call while serving.
func (s *ChunkServer) SetLimits(l ServerLimits) {
	s.connMu.Lock()
	s.limits = l
	s.connMu.Unlock()
}

// OverloadStats returns a snapshot of the server's self-protection
// counters.
func (s *ChunkServer) OverloadStats() OverloadStats {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.ostats
}

// CurrentConns returns the number of currently admitted connections —
// the live admission gauge population runs assert MaxConns behaviour
// against, instead of inferring it from 503 counts.
func (s *ChunkServer) CurrentConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// Draining reports whether Drain has been called.
func (s *ChunkServer) Draining() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.draining
}

// closeListener closes the current generation's listener exactly once
// and remembers the error. Safe to call repeatedly and across
// generations.
func (s *ChunkServer) closeListener() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.lnClosed {
		s.lnErr = s.ln.Close()
		s.lnClosed = true
	}
	return s.lnErr
}

// cancelWrites cancels the current generation's write context,
// unblocking shaped writes and injected stalls.
func (s *ChunkServer) cancelWrites() {
	s.lifeMu.Lock()
	cancel := s.cancel
	s.lifeMu.Unlock()
	cancel()
}

// Crashed reports whether the server is between a Crash and a Restart.
func (s *ChunkServer) Crashed() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.crashed
}

// crashQuiesce is how long Crash waits for in-flight handlers to notice
// their reset connections before returning anyway.
const crashQuiesce = 2 * time.Second

// Crash kills the origin the way a machine loss looks from outside: the
// listener closes (new dials are refused), every admitted connection is
// reset (RST), and in-flight shaped writes abort. Unlike Blackhole the
// death is recoverable — Restart brings the same address back. Crash
// waits (bounded) for the reset handlers to exit so a crash→restart
// sequence observes a quiet server in between. Idempotent.
func (s *ChunkServer) Crash() {
	s.lifeMu.Lock()
	if s.crashed {
		s.lifeMu.Unlock()
		return
	}
	s.crashed = true
	if !s.lnClosed {
		s.lnErr = s.ln.Close()
		s.lnClosed = true
	}
	s.cancel()
	s.lifeMu.Unlock()
	s.connMu.Lock()
	for c := range s.conns {
		hardClose(c)
	}
	s.connMu.Unlock()
	deadline := time.Now().Add(crashQuiesce)
	for time.Now().Before(deadline) {
		if s.CurrentConns() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Restart brings a crashed server back on its original address with a
// fresh listener and write context; counters (served bytes, fault and
// overload stats) carry over. Returns an error when the server is not
// crashed or the address cannot be re-bound.
func (s *ChunkServer) Restart() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.crashed {
		return fmt.Errorf("netmp: restart: server %s is not crashed", s.addr)
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("netmp: restart %s: %w", s.addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.ln, s.lnClosed, s.crashed = ln, false, false
	s.cancel = cancel
	s.wg.Add(1)
	go s.acceptLoop(ln, ctx)
	return nil
}

// Drain gracefully retires the server: the listener closes (new dials
// are refused), idle keep-alive connections are kicked, and connections
// mid-request finish writing their current body before closing. Drain
// blocks until every handler has exited; Close afterwards is still
// required (and cheap).
func (s *ChunkServer) Drain() error {
	s.connMu.Lock()
	s.draining = true
	sink := s.sink
	idle := make([]net.Conn, 0, len(s.conns))
	active := len(s.conns)
	for c, tr := range s.conns {
		if !tr.busy {
			idle = append(idle, c)
		}
	}
	s.connMu.Unlock()
	if sink != nil {
		sink.Emit(obs.NewEvent("server.drain").WithStr("addr", s.Addr()).
			WithNum("active_conns", float64(active)))
	}
	err := s.closeListener()
	for _, c := range idle {
		c.Close() // parked in readRequest; the handler exits on the error
	}
	s.wg.Wait()
	return err
}

// Blackhole kills the path permanently mid-session: the listener closes
// so client redials are refused, and every active connection is reset.
// The server object remains valid (Close is still required).
func (s *ChunkServer) Blackhole() {
	s.closeListener()
	s.cancelWrites() // unblock shaped writes
	s.connMu.Lock()
	for c := range s.conns {
		hardClose(c)
	}
	s.connMu.Unlock()
}

// Close stops the server and waits for handlers to finish. Active
// connections are closed too — a handler parked in readRequest on an
// idle keep-alive connection would otherwise park Close forever.
func (s *ChunkServer) Close() error {
	s.cancelWrites()
	err := s.closeListener()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// acceptBackoffMax caps the accept-retry backoff on transient errors.
const acceptBackoffMax = time.Second

// acceptLoop accepts connections for one listener generation. The
// listener and write-cancel context are captured as parameters (not read
// from the struct) so a Crash/Restart cycle cannot hand this generation
// the next generation's listener.
func (s *ChunkServer) acceptLoop(ln net.Listener, ctx context.Context) {
	defer s.wg.Done()
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
			s.connMu.Lock()
			s.ostats.AcceptRetries++
			s.connMu.Unlock()
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

		// Admission control: a Crash racing this accept must not leave an
		// admitted connection the crash sweep missed, so the crashed check
		// happens under connMu — if crashed is still false here, the sweep
		// (which also takes connMu) has not run yet and will reset this
		// connection. Under MaxConns pressure the excess accept is turned
		// away with a 503 so admitted connections keep their bandwidth and
		// file descriptors.
		s.connMu.Lock()
		if s.Crashed() {
			s.connMu.Unlock()
			hardClose(conn)
			continue
		}
		if s.limits.MaxConns > 0 && len(s.conns) >= s.limits.MaxConns {
			s.ostats.RejectedConns++
			sink := s.sink
			s.connMu.Unlock()
			if sink != nil {
				sink.Emit(obs.NewEvent("server.reject").WithStr("addr", s.Addr()).
					WithStr("peer", conn.RemoteAddr().String()))
			}
			go s.reject503(conn)
			continue
		}
		s.conns[conn] = &connTrack{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				// A handler panic is one connection's problem, not the
				// server's: recover, count it, drop the connection.
				if r := recover(); r != nil {
					s.connMu.Lock()
					s.ostats.PanicsRecovered++
					s.connMu.Unlock()
				}
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.serve(conn, ctx)
		}()
	}
}

// reject503 answers one over-limit connection and closes it.
func (s *ChunkServer) reject503(conn net.Conn) {
	conn.SetDeadline(s.clk.now().Add(time.Second))
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

// ChunkBody returns the deterministic payload byte at absolute offset off
// of chunk (index, level): a cheap keyed byte generator that makes any
// mis-assembled range detectable.
func ChunkBody(index, level int, off int64) byte {
	x := uint64(index)*1_000_003 + uint64(level)*7_777_777 + uint64(off)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return byte(x)
}

// nextFault decides the fault (if any) for a chunk request at level:
// blackout windows first, then the scripted schedule, then seeded
// probability draws evaluated in a fixed order. The plan is read under
// faultMu because SetFaultProbs can install or mutate it mid-run.
func (s *ChunkServer) nextFault(level int) FaultKind {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.plan == nil || !s.plan.appliesTo(level) {
		return FaultNone
	}
	s.reqN++
	now := s.clk.now().Sub(s.start)
	for _, b := range s.plan.Blackouts {
		if now >= b.From && now < b.To {
			s.fstats.BlackoutResets++
			return FaultReset
		}
	}
	if k, ok := s.plan.Script[int(s.reqN)]; ok {
		s.countFaultLocked(k)
		return k
	}
	// Always draw all four so the random sequence depends only on the
	// seed and request ordinal, not on which probabilities are set.
	r1, r2, r3, r4 := s.faultRN.Float64(), s.faultRN.Float64(), s.faultRN.Float64(), s.faultRN.Float64()
	switch {
	case r1 < s.plan.ResetProb:
		s.fstats.Resets++
		return FaultReset
	case r2 < s.plan.StallProb:
		s.fstats.Stalls++
		return FaultStall
	case r3 < s.plan.CloseProb:
		s.fstats.PrematureCloses++
		return FaultClose
	case r4 < s.plan.CorruptProb:
		s.fstats.Corruptions++
		return FaultCorrupt
	}
	return FaultNone
}

// stallDuration reads the plan's stall length under faultMu (the plan
// can be swapped mid-run by SetFaultProbs).
func (s *ChunkServer) stallDuration() time.Duration {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.plan.stallFor()
}

func (s *ChunkServer) countFaultLocked(k FaultKind) {
	switch k {
	case FaultReset:
		s.fstats.Resets++
	case FaultStall:
		s.fstats.Stalls++
	case FaultClose:
		s.fstats.PrematureCloses++
	case FaultCorrupt:
		s.fstats.Corruptions++
	}
}

// serve handles one keep-alive connection, honoring the per-connection
// request cap and the drain flag (finish the in-flight response, then
// close instead of waiting for the next request). ctx is the listener
// generation's write context, cancelled by Crash/Close.
func (s *ChunkServer) serve(conn net.Conn, ctx context.Context) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	served := 0
	setBusy := func(b bool) {
		s.connMu.Lock()
		if tr := s.conns[conn]; tr != nil {
			tr.busy = b
		}
		s.connMu.Unlock()
	}
	for {
		if s.Draining() {
			return
		}
		s.connMu.Lock()
		capped := s.limits.MaxRequestsPerConn > 0 && served >= s.limits.MaxRequestsPerConn
		if capped {
			s.ostats.CappedConns++
		}
		s.connMu.Unlock()
		if capped {
			return
		}
		index, level, from, to, manifest, bad, ok := readChunkRequest(r, s.Video)
		if !ok {
			return
		}
		served++
		setBusy(true)
		if bad {
			w.WriteString(head400)
			w.Flush()
			setBusy(false)
			continue
		}
		if manifest {
			if err := s.writeManifest(w); err != nil {
				return
			}
			setBusy(false)
			continue
		}
		fault := s.nextFault(level)
		if fault == FaultReset {
			hardClose(conn)
			return
		}
		size := s.chunkSz(index, level)
		if to < 0 || to >= size {
			to = size - 1
		}
		if from < 0 || from > to {
			w.WriteString(head416)
			w.Flush()
			setBusy(false)
			continue
		}
		n := to - from + 1
		w.Write(appendRangeHead(w.AvailableBuffer(), n, from, to, size, ""))
		if err := s.writeBody(ctx, w, index, level, from, n, fault); err != nil {
			w.Flush() // deliver whatever was produced before the fault
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		setBusy(false)
	}
}

// writeManifest serves the video's MPD (unshaped: manifests are tiny).
func (s *ChunkServer) writeManifest(w *bufio.Writer) error {
	return writeManifestFor(w, s.Video)
}

// writeManifestFor writes v's MPD response — shared by the origin
// server and the edge (an edge synthesizes the manifest locally; the
// asset description is the same either way).
func writeManifestFor(w *bufio.Writer, v *dash.Video) error {
	body, err := dash.EncodeMPD(v.Manifest())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Type: application/dash+xml\r\nContent-Length: %d\r\n\r\n", len(body)); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// writeBody streams n deterministic bytes through the rate shaper,
// applying the chosen mid-body fault: a stall freezes at the halfway
// point, a premature close stops after half the advertised length, and
// corruption flips a short run of bytes in the first block.
func (s *ChunkServer) writeBody(ctx context.Context, w io.Writer, index, level int, from, n int64, fault FaultKind) error {
	const block = segBufBlock
	bp := AcquireSegBuf()
	defer ReleaseSegBuf(bp)
	buf := *bp
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
			case <-time.After(s.stallDuration()):
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
		for i := int64(0); i < m; i++ {
			buf[i] = ChunkBody(index, level, off+i)
		}
		if fault == FaultCorrupt && off == from {
			for i := int64(0); i < m && i < 16; i++ {
				buf[i] ^= 0xA5
			}
		}
		if err := s.bucket.Take(ctx, int(m)); err != nil {
			return err
		}
		if _, err := w.Write(buf[:m]); err != nil {
			return err
		}
		if f, okF := w.(*bufio.Writer); okF {
			if err := f.Flush(); err != nil {
				return err
			}
		}
		off += m
		remaining -= m
		s.mu.Lock()
		s.served += m
		s.mu.Unlock()
	}
	return nil
}
