package stats

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// The helpers are FNV-1a exactly: byte-wise folds match hash/fnv, so the
// shard maps, trace IDs and checksums that moved onto them kept their
// values.
func TestFNVMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "mpdash_chunks_total", "group:v0:w80:l80"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := FNVString(FNVOffset, s); got != h.Sum64() {
			t.Errorf("FNVString(%q) = %#x, want %#x", s, got, h.Sum64())
		}
	}
	// A word folded byte by byte, little end first — the trace-ID step.
	const w = 0x0123456789abcdef
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	h := fnv.New64a()
	h.Write(b[:])
	got := FNVOffset
	for i := 0; i < 8; i++ {
		got = FNVMix(got, (w>>(8*i))&0xff)
	}
	if got != h.Sum64() {
		t.Errorf("byte-wise FNVMix = %#x, want %#x", got, h.Sum64())
	}
	if n := testing.AllocsPerRun(100, func() { got = FNVString(got, "bbb-4k") }); n != 0 {
		t.Errorf("FNVString allocated %v per run", n)
	}
}
