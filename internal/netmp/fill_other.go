//go:build !amd64

package netmp

// useAVX2 is false off amd64: fillChunkBody and checkChunkBody run
// their portable loops.
var useAVX2 = false

func fillAVX2(dst *byte, n int, y uint64) { panic("netmp: no fill kernel on this GOARCH") }

// checkAVX2 is checkWords: the portable check answers for the kernel.
func checkAVX2(src []byte, y uint64) bool { return checkWords(src, y) }
