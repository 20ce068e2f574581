package netmp

import (
	"bufio"
	"sync"

	"mpdash/internal/cache"
)

// Buffer pooling for the per-segment hot path. Every origin response
// fills its body into 16 KiB blocks (fillChunkBody), which its
// connection's write queue holds until the flush that writes them
// (front.go). The client checks each body where the read put it
// (checkChunkBody writes nothing): in its reader's buffer, or, for a
// body the buffer cannot hold, in a block read straight from the socket.
// A pipelined attempt reads through a 64 KiB window lent from a second
// pool (pathConn.lend). At swarm scale those per-request allocations
// would dominate the heap churn (thousands of sessions × segments ×
// retries), so blocks and windows are pooled. (Request and response
// heads: wire.go.)
//
// Ownership contract (DESIGN.md §16): AcquireSegBuf transfers exclusive
// ownership of the returned buffer to the caller. The caller must stop
// touching the buffer the moment it calls ReleaseSegBuf — the buffer
// may be handed to another goroutine immediately. The front releases a
// response's pooled blocks after the writev that sends them; the pool
// refuses foreign sizes, so a resized buffer falls out of circulation. A stored edge body is not a pooled
// block: its pages belong to the cache, and the response holds a counted
// reference to them instead (cache.Body, released by the same flush).
// Built with -tags mpdash_poison, every released block is overwritten
// (poison.go), so a use after release shows as a corrupt body.

// segBufBlock is the block granularity of the segment read/write loops:
// the fetcher's readRange reads and checks bodies and the front writes
// them in blocks of this size — a stored body's page, so a block-aligned
// range never splits at one.
const segBufBlock = cache.PageSize

// poisonSegBufs is set under the mpdash_poison build tag (poison.go).
var poisonSegBufs bool

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
	if poisonSegBufs {
		for i := range *b {
			(*b)[i] = 0xDB
		}
	}
	segBufPool.Put(b)
}

// windowPool holds the read windows pipelined attempts borrow: one
// read can take a whole server writev (queueMax payload bytes).
var windowPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, queueMax) },
}

// Test hooks, nil outside tests: testHookWindow sees every window as it
// is lent (out) and as it goes back to windowPool; testHookBlock sees
// every body read into a segment block.
var (
	testHookWindow func(w *bufio.Reader, out bool)
	testHookBlock  func()
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
	w := windowPool.Get().(*bufio.Reader)
	w.Reset(pc.conn)
	if testHookWindow != nil {
		testHookWindow(w, true)
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
	w.Reset(nil)
	if testHookWindow != nil {
		testHookWindow(w, false)
	}
	windowPool.Put(w)
	pc.r = pc.own
}
