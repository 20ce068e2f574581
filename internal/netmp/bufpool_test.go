package netmp

import "testing"

// A released buffer of foreign capacity must fall out of circulation
// instead of poisoning the pool, and nil release is a no-op.
func TestReleaseSegBufForeignSize(t *testing.T) {
	ReleaseSegBuf(nil)
	odd := make([]byte, 100)
	ReleaseSegBuf(&odd)
	bp := AcquireSegBuf()
	if len(*bp) != segBufBlock || cap(*bp) != segBufBlock {
		t.Fatalf("acquired buffer len=%d cap=%d, want %d", len(*bp), cap(*bp), segBufBlock)
	}
	// A short-resliced buffer restores to full block length on release.
	*bp = (*bp)[:10]
	ReleaseSegBuf(bp)
	bp2 := AcquireSegBuf()
	if len(*bp2) != segBufBlock {
		t.Fatalf("recycled buffer len=%d, want %d", len(*bp2), segBufBlock)
	}
	ReleaseSegBuf(bp2)
}
