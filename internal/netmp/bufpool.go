package netmp

import (
	"bufio"
	"net"
	"sync"

	"mpdash/internal/cache"
)

// Buffer pooling for the per-segment hot path and for per-connection
// state. Every origin response fills its body into 16 KiB blocks
// (fillChunkBody), which its connection's write queue holds until the
// flush that writes them (front.go). The client checks each body where
// the read put it (checkChunkBody writes nothing): in its reader's buffer,
// or, for a body the buffer cannot hold, in a block read straight from
// the socket. A pipelined attempt reads through a 64 KiB window lent from
// a second pool (pathConn.lend). A connection's own I/O state is pooled
// too: a path's 4 KiB reader (readerPool, taken at the dial) and the
// front's per-connection tracker with its request reader (trackPool).
// At swarm scale, where sessions come and go, those per-request and
// per-connection allocations would dominate the heap churn, so they are
// recycled, not rebuilt. (Request and response heads: wire.go.)
//
// Ownership contract (DESIGN.md §16): taking from a pool transfers
// exclusive ownership to the taker, and each kind of state has one
// release point, after which its owner must not touch it — it may be
// handed to another goroutine at once. The front releases a response's
// pooled blocks after the writev that sends them, and a connection's
// tracker once its handler's last flush has run (never after a
// recovered panic); the pool refuses foreign sizes, so a resized buffer
// falls out of circulation. A stored edge body is not a pooled block:
// its pages belong to the cache, and the response holds a counted
// reference to them instead (cache.Body, released by the same flush). A
// lent window goes back when it holds nothing (unlend), a path's reader
// when no goroutine can read the path again (pathConn.release). Built
// with -tags mpdash_poison, every released block, window, reader and
// tracker is overwritten (poison.go), so a use after release shows as a
// corrupt body or a parse error.

// segBufBlock is the block granularity of the segment read/write loops:
// the fetcher's readRange reads and checks bodies and the front writes
// them in blocks of this size — a stored body's page, so a block-aligned
// range never splits at one.
const segBufBlock = cache.PageSize

// poisonPools is set under the mpdash_poison build tag (poison.go).
var poisonPools bool

// poisonByte is what poisonPools overwrites released state with.
const poisonByte = 0xDB

var segBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, segBufBlock)
		return &b
	},
}

// AcquireSegBuf returns a 16 KiB scratch buffer for segment body I/O.
// The buffer's contents are arbitrary. Release it with ReleaseSegBuf
// once no live reference to its bytes remains. Exported for load
// generators that speak the protocol from outside the package.
func AcquireSegBuf() *[]byte {
	if testHookHold != nil {
		testHookHold(false, 1)
	}
	return segBufPool.Get().(*[]byte)
}

// ReleaseSegBuf returns a buffer obtained from AcquireSegBuf to the
// pool. Buffers whose capacity no longer matches the canonical block
// size are dropped rather than recycled. Nil is a no-op.
func ReleaseSegBuf(b *[]byte) {
	if b == nil || cap(*b) != segBufBlock {
		return
	}
	*b = (*b)[:segBufBlock]
	if poisonPools {
		poisonBytes(*b)
	}
	if testHookHold != nil {
		testHookHold(false, -1)
	}
	segBufPool.Put(b)
}

// The reader pools: windowPool holds the read windows pipelined attempts
// borrow (one read can take a whole server writev, queueMax payload
// bytes), readerPool the 4 KiB readers every client connection reads
// through when it reads no window.
var (
	windowPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, queueMax) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4<<10) }}
)

// getReader takes a reader from pool, reading conn.
func getReader(pool *sync.Pool, conn net.Conn) *bufio.Reader {
	r := pool.Get().(*bufio.Reader)
	r.Reset(conn)
	return r
}

// emptyReader drops what r holds and what it reads: the last step before
// r goes back to its pool, after which its owner must not read it, or a
// slice of its buffer, again. Under the tag, its buffer is overwritten
// and it reads on as poison until its next owner resets it.
func emptyReader(r *bufio.Reader) {
	if !poisonPools {
		r.Reset(nil)
		return
	}
	r.Reset(poisonSource{})
	r.Peek(r.Size()) // one fill: the whole buffer
	r.Discard(r.Size())
}

// poisonBytes overwrites b with poisonByte.
func poisonBytes(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// poisonSource reads as an endless run of poisonByte.
type poisonSource struct{}

func (poisonSource) Read(p []byte) (int, error) {
	poisonBytes(p)
	return len(p), nil
}

// Test hooks, nil outside tests: testHookWindow sees every window as it
// is lent (out) and as it goes back to windowPool, before it is emptied,
// with drop set when the give-back discards what it holds (a redial or
// Close); testHookBlock sees
// every body read into a segment block; testHookHold counts, by +1 and
// -1, the segment blocks taken from and given back to segBufPool, and
// the stored bodies' references the front takes and releases (stored).
var (
	testHookWindow func(w *bufio.Reader, out, drop bool)
	testHookBlock  func()
	testHookHold   func(stored bool, delta int)
)

// lend gives pc a window from windowPool for the 206s of an attempt that
// wrote two or more range requests. A path reading through its own
// reader borrows only while that holds nothing; one whose window kept
// bytes from the last attempt reads on through it.
// Owner-goroutine only.
func (pc *pathConn) lend() {
	if pc.r != pc.own || pc.r.Buffered() > 0 {
		return
	}
	w := getReader(&windowPool, pc.conn)
	if testHookWindow != nil {
		testHookWindow(w, true, false)
	}
	pc.r = w
}

// unlend puts pc back on its own reader. The window goes back to
// windowPool only when it holds nothing — the bytes it holds are the
// connection's — unless drop says the connection is gone, when it is
// emptied first. Owner-goroutine only.
func (pc *pathConn) unlend(drop bool) {
	w := pc.r
	if w == pc.own || w.Buffered() > 0 && !drop {
		return
	}
	if testHookWindow != nil {
		testHookWindow(w, false, drop)
	}
	emptyReader(w)
	windowPool.Put(w)
	pc.r = pc.own
}

// release gives back the path's readers, a lent window first, once no
// goroutine can read the path again: the Fetcher's paths when it is
// closed and no chunk is in flight (Fetcher.Close, or the FetchChunk that
// Close overtook), a manifest's or a hedge's connection when its one
// request is done. Idempotent.
func (pc *pathConn) release() {
	if pc.own == nil {
		return
	}
	pc.unlend(true)
	emptyReader(pc.own)
	readerPool.Put(pc.own)
	pc.own, pc.r = nil, nil
}
