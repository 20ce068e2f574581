package netmp

// useAVX2 sends fillChunkBody's whole 32-byte runs to fillAVX2, and
// checkChunkBody's to checkAVX2. It is read from the CPU at start-up, not
// fixed at build time: the default GOAMD64=v1 build may not assume AVX2.
var useAVX2 = hasAVX2()

// fillAVX2 writes n bytes (n > 0, a multiple of 32) of the payload
// stream whose first byte's product key·mul is y: the bytes
// fillChunkBody's portable loop writes from that key.
//
//go:noescape
func fillAVX2(dst *byte, n int, y uint64)

// checkAVX2 reports whether src (len > 0, a multiple of 32) holds the
// payload stream whose first byte's product key·mul is y: it runs
// fillAVX2's lanes and compares them with src in registers, writing
// nothing.
//
//go:noescape
func checkAVX2(src []byte, y uint64) bool

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers across context switches.
func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // xmm and ymm state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
