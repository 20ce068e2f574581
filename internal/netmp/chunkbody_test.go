package netmp

import "testing"

// kernelFound is useAVX2 as the CPU set it, before any test flips it.
var kernelFound = useAVX2

// eachFillPath runs f as a subtest once with the AVX2 kernel, where the
// CPU has it, and once with the portable loop, setting useAVX2 for the
// subtest and restoring it in t.Cleanup. Servers read useAVX2 on their
// own goroutines, so f starts its servers after the flip and closes
// them before it returns.
func eachFillPath(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range []bool{true, false} {
		name := "portable"
		if kernel {
			if !kernelFound {
				continue
			}
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) {
			saved := useAVX2
			useAVX2 = kernel
			t.Cleanup(func() { useAVX2 = saved })
			f(t)
		})
	}
}

// FuzzChunkBodyFill holds the payload helpers to the per-byte definition,
// ChunkBody, at arbitrary (index, level, off, n) on each fill path — the
// kernel's 32-byte runs and the eight-byte loops below 2^33, the
// definition above it, and every range straddling the boundary.
// checkChunkBody must accept exactly those bytes: a flipped byte, a
// shift of 1–15 bytes and a neighbouring chunk's or level's bytes are
// all rejected. (Below 32 bytes a shifted or neighbouring body may match
// by chance, so only the flips are asserted there.)
func FuzzChunkBodyFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, index, level int, off int64, n, flip uint32) {
		if n > 1<<17 {
			t.Skip("bodies are at most 128 KiB here")
		}
		eachFillPath(t, func(t *testing.T) { checkFillPair(t, index, level, off, n, flip) })
	})
}

// checkFillPair is FuzzChunkBodyFill's check on the fill path in force.
func checkFillPair(t *testing.T, index, level int, off int64, n, flip uint32) {
	const guard = 8
	buf := make([]byte, n+guard)
	for i := range buf {
		buf[i] = 0x5a
	}
	got := buf[:n]
	fillChunkBody(got, index, level, off)
	for i, b := range got {
		if want := ChunkBody(index, level, off+int64(i)); b != want {
			t.Fatalf("byte %d of (%d, %d) from %d: fill %#x, ChunkBody %#x", i, index, level, off, b, want)
		}
	}
	for i, b := range buf[n:] {
		if b != 0x5a {
			t.Fatalf("fill of %d bytes wrote past the end, at +%d", n, i)
		}
	}
	if !checkChunkBody(got, index, level, off) {
		t.Fatal("check rejects the fill's own bytes")
	}
	if n == 0 {
		return
	}
	mask := byte(flip>>24) | 1
	flipAt := func(p uint32) {
		got[p] ^= mask
		if checkChunkBody(got, index, level, off) {
			t.Fatalf("check accepts byte %d of %d flipped by %#x", p, n, mask)
		}
		got[p] ^= mask
	}
	for _, p := range []uint32{0, n - 1, flip % n} {
		flipAt(p)
	}
	// One flip in every whole 32-byte run of a body up to 4 KiB, so a
	// kernel that loses a run's difference fails, and every byte of the
	// tail after the last whole run.
	if n <= 4<<10 {
		for p := flip % 32; p < n&^31; p += 32 {
			flipAt(p)
		}
	}
	for p := n &^ 31; p < n; p++ {
		flipAt(p)
	}
	if n < 32 {
		return
	}
	for s := int64(1); s <= 15; s++ {
		for _, d := range []int64{s, -s} {
			if checkChunkBody(got, index, level, off+d) {
				t.Fatalf("check at offset %d accepts the bytes of offset %d", off+d, off)
			}
		}
	}
	for _, nb := range [][2]int{{index + 1, level}, {index - 1, level}, {index, level + 1}, {index, level - 1}} {
		if checkChunkBody(got, nb[0], nb[1], off) {
			t.Fatalf("check as chunk (%d, %d) accepts the bytes of (%d, %d)", nb[0], nb[1], index, level)
		}
	}
}
