//go:build !amd64

package netmp

// useAVX2 is false off amd64: fillChunkBody runs its portable loop.
var useAVX2 = false

func fillAVX2(dst *byte, n int, y uint64) { panic("netmp: no fill kernel on this GOARCH") }
