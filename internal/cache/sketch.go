package cache

// The demand sketch: TinyLFU's frequency estimate (Einziger, Friedman &
// Manes, "TinyLFU: A Highly Efficient Cache Admission Policy", ACM ToS
// 2017). Each shard keeps one, under its lock.

const (
	sketchRows = 4
	// sketchBits sets a row's counters to 1<<sketchBits.
	sketchBits = 10
	// sampleFactor is TinyLFU's sample size over the resident entries:
	// every counter halves once a shard has counted that many demands
	// per entry it holds, so old popularity fades.
	sampleFactor = 10
)

// sketchSeeds are odd multipliers, one per row, that spread a key's
// hash over the row's counters.
var sketchSeeds = [sketchRows]uint32{0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F}

// sketch is a count-min sketch of 4-bit saturating counters, sixteen to
// a word. Its size is fixed: counting a key allocates nothing.
type sketch struct {
	rows    [sketchRows][1 << sketchBits / 16]uint64
	demands int // since the last halving
}

// slot locates row i's counter for hash h: a word and a bit shift.
func slot(h uint32, i int) (word int, shift uint) {
	j := h * sketchSeeds[i] >> (32 - sketchBits)
	return int(j / 16), uint(j%16) * 4
}

// estimate is h's demand count: the least of its counters.
func (s *sketch) estimate(h uint32) int {
	n := 15
	for i := range s.rows {
		w, sh := slot(h, i)
		n = min(n, int(s.rows[i][w]>>sh&15))
	}
	return n
}

// add counts one demand for h, halving every counter once the demands
// since the last halving reach sampleFactor per resident entry.
func (s *sketch) add(h uint32, resident int) {
	for i := range s.rows {
		w, sh := slot(h, i)
		if s.rows[i][w]>>sh&15 < 15 {
			s.rows[i][w] += 1 << sh
		}
	}
	if s.demands++; s.demands < sampleFactor*max(resident, 1) {
		return
	}
	s.demands = 0
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] = s.rows[i][j] >> 1 & 0x7777777777777777
		}
	}
}
