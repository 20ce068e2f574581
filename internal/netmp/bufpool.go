package netmp

import "sync"

// Buffer pooling for the per-segment hot path. Every range request on
// the client side reads its body in 16 KiB blocks and checks each
// against a second block filled with the expected bytes
// (checkChunkBody), and every origin response fills its body into the
// same blocks (fillChunkBody), which its connection's write queue holds
// until the flush that writes them (front.go); at swarm scale those
// per-request allocations would dominate
// the heap churn (thousands of sessions × segments × retries), so the
// blocks are pooled. (Request and response heads: wire.go.)
//
// Ownership contract (DESIGN.md §16): AcquireSegBuf transfers exclusive
// ownership of the returned buffer to the caller. The caller must stop
// touching the buffer the moment it calls ReleaseSegBuf — the buffer
// may be handed to another goroutine immediately. Never release a
// buffer whose bytes are still referenced (e.g. a slice of it stored in
// a cache); buffers that escape into long-lived structures must simply
// not be released, and the pool refuses foreign sizes so a resized
// buffer quietly falls out of circulation instead of poisoning it.

// segBufBlock is the block granularity of the segment read/write loops:
// the fetcher's readRange reads and checks bodies and the front writes
// them in blocks of this size.
const segBufBlock = 16 * 1024

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
	segBufPool.Put(b)
}
