package netmp

// useAVX2 sends fillChunkBody's whole 32-byte runs to fillAVX2, and
// checkChunkBody's to checkAVX2. It is read from the CPU at start-up, not
// fixed at build time: the default GOAMD64=v1 build may not assume AVX2.
var useAVX2 = hasAVX2()

// fillSteps[p] is what each of the kernel's 32 dword lanes gains from one
// 32-byte run to the next, when the run's first product key·mul is p mod
// 512, in the kernel's lane order (fill_amd64.s). A lane holds bits 9..40
// of its position's product, which gains 32·mul per run: bits 9.. of
// 32·mul, plus the carry out of the lane's low 9 bits. mul is odd, so
// those bits, and every lane's carry, follow from p alone; p gains 416
// per run and comes back after 16. Built at start-up where the kernel
// runs: 64 KiB.
var fillSteps [512][32]uint32

func init() {
	if !useAVX2 {
		return
	}
	mul := uint64(payloadMul)
	step := 32 * mul
	for p := range fillSteps {
		for s := range fillSteps[p] {
			r, d := s/8, s%8
			pos := (d&4)<<2 + 4*r + d&3
			low := (uint64(p) + uint64(pos)*mul) & 511
			fillSteps[p][s] = uint32(step>>9 + (low+step&511)>>9)
		}
	}
}

// fillAVX2 writes n bytes (n > 0, a multiple of 32) of the payload
// stream whose first byte's product key·mul is y: the bytes
// fillChunkBody's portable loop writes from that key, 32 a run, stepping
// its lanes through fillSteps.
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
