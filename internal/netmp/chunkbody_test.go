package netmp

import (
	"bytes"
	"testing"
)

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

// TestPayloadKernelEveryPhase fills and checks from 512 consecutive keys,
// so the first run starts at each of the kernel's 512 carry-table rows
// (k·mul mod 512 is a bijection, mul being odd), at two lengths past the
// table's 16-run cycle, on each fill path. Both must agree with
// ChunkBody, and a flip at any of the 32 bytes of one run must be
// rejected: a lane out of place, or lost from the check's difference,
// fails it.
//
// A wrong carry moves a lane by one at bit 9 for the rest of the call,
// which shows in its byte only at a run where the lane's bits 9..32 have
// just wrapped: one run in 2^24. So each of the table's 512×32 entries
// is also driven to such a run. For the entry of a lane whose low 9 bits
// are q, the key whose product's low 33 bits are B·2^9 + (q + 416m) mod
// 512, with B = 0 where the carry is one and 2^24−1 where it is zero,
// sits in that lane m runs on, where a carry off by one in either
// direction flips bit 33; m is the first number of runs that keeps the
// fill below key 2^33.
func TestPayloadKernelEveryPhase(t *testing.T) {
	inv := uint64(payloadMul) // mul's inverse mod 2^64, by Newton's method
	for i := 0; i < 5; i++ {
		inv *= 2 - payloadMul*inv
	}
	const stepLow = 32 * (payloadMul & 15) // 32·mul mod 512: 416
	eachFillPath(t, func(t *testing.T) {
		const index, level, k0 = 7, 2, 1 << 20
		for _, n := range []int{17*32 + 31, 33 * 32} {
			buf := make([]byte, n)
			for i := 0; i < 512; i++ {
				off := int64(k0 + i)
				fillChunkBody(buf, index, level, off)
				for j, b := range buf {
					if want := ChunkBody(index, level, off+int64(j)); b != want {
						t.Fatalf("%d bytes from offset %d: byte %d is %#x, ChunkBody %#x", n, off, j, b, want)
					}
				}
				if !checkChunkBody(buf, index, level, off) {
					t.Fatalf("%d bytes from offset %d: check rejects the fill", n, off)
				}
				run := i % (n / 32) * 32
				for j := run; j < run+32; j++ {
					mask := byte(1) << (j % 8)
					buf[j] ^= mask
					if checkChunkBody(buf, index, level, off) {
						t.Fatalf("%d bytes from offset %d: check accepts byte %d flipped by %#x", n, off, j, mask)
					}
					buf[j] ^= mask
				}
			}
		}
		for q := uint64(0); q < 512; q++ {
			var wrap uint64 // bits 9..32 of the lane m runs on
			if q+stepLow < 512 {
				wrap = 1<<24 - 1
			}
			for j := int64(0); j < 32; j++ {
				m, off := int64(1), int64(-1)
				for ; m <= 8; m++ {
					k := int64((wrap<<9 | (q+uint64(m)*stepLow)&511) * inv & (1<<33 - 1))
					if off = k - j - 32*m; off >= 0 && off+32*(m+1) <= 1<<33 {
						break
					}
				}
				if m > 8 {
					t.Fatalf("no key below 2^33 drives lane %d at low bits %d", j, q)
				}
				n := 32 * (m + 1)
				want := make([]byte, n)
				for i := range want {
					want[i] = ChunkBody(0, 0, off+int64(i))
				}
				got := make([]byte, n)
				fillChunkBody(got, 0, 0, off)
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bytes from key %d: fill %x, ChunkBody %x", n, off, got, want)
				}
				if !checkChunkBody(want, 0, 0, off) {
					t.Fatalf("%d bytes from key %d: check rejects ChunkBody's bytes", n, off)
				}
			}
		}
	})
}

// BenchmarkPayloadKernel times fillChunkBody and checkChunkBody on the
// fill path the CPU picks, at a segment's smallest and common sizes: a
// key below 2^33, so a host with AVX2 runs the kernel over every whole
// 32-byte run.
func BenchmarkPayloadKernel(b *testing.B) {
	const index, level, off = 149, 4, 16384
	for _, size := range []struct {
		name string
		n    int
	}{{"512B", 512}, {"4KiB", 4 << 10}, {"16KiB", 16 << 10}, {"64KiB", 64 << 10}} {
		buf := make([]byte, size.n)
		b.Run("fill/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for i := 0; i < b.N; i++ {
				fillChunkBody(buf, index, level, off)
			}
		})
		b.Run("check/"+size.name, func(b *testing.B) {
			fillChunkBody(buf, index, level, off)
			b.SetBytes(int64(size.n))
			for i := 0; i < b.N; i++ {
				if !checkChunkBody(buf, index, level, off) {
					b.Fatal("check rejects the fill's own bytes")
				}
			}
		})
	}
}
