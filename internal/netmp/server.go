package netmp

import (
	"math/rand"
	"sync"
	"time"

	"mpdash/internal/dash"
)

// ChunkServer is the origin: a front (see front.go) whose body source is
// the deterministic ChunkBody generator — chunk contents are a function
// of the byte offset, so clients can verify multipath reassembly
// byte-for-byte — plus an optional FaultPlan that makes the server
// misbehave on purpose (resets, stalls, premature closes, corruption,
// blackouts) to exercise the client-side path supervisor.
type ChunkServer struct {
	*front

	start   time.Time // blackout windows are offsets from here
	plan    *FaultPlan
	faultMu sync.Mutex
	faultRN *rand.Rand
	reqN    int64
	fstats  FaultStats
}

// NewChunkServer starts a server on a loopback port, shaped to rateMbps
// (non-positive = unshaped).
func NewChunkServer(video *dash.Video, rateMbps float64) (*ChunkServer, error) {
	return NewChunkServerWithFaults(video, rateMbps, nil)
}

// NewChunkServerWithFaults starts a shaped server that injects faults
// according to plan (nil = no faults).
func NewChunkServerWithFaults(video *dash.Video, rateMbps float64, plan *FaultPlan) (*ChunkServer, error) {
	s := &ChunkServer{start: time.Now(), plan: plan}
	if plan != nil {
		s.faultRN = newFaultRand(plan.Seed)
	}
	var err error
	if s.front, err = listenFront(video, rateMbps, s); err != nil {
		return nil, err
	}
	return s, nil
}

// newFaultRand seeds a fault plan's draw stream (seed 0 reads as 1).
func newFaultRand(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// chunk is the origin's body source: no stored body (the front
// generates the bytes), no cache state, no use for the range's first
// byte, and the fault plan's verdict —
// read under faultMu because SetFaultProbs can install or mutate the
// plan mid-run.
func (s *ChunkServer) chunk(index, level int, _ int64) (chunkBody, error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	b := chunkBody{fault: s.nextFaultLocked(level)}
	if b.fault == FaultStall {
		b.stall = s.plan.stallFor()
	}
	return b, nil
}

// FaultStats returns a snapshot of the faults injected so far.
func (s *ChunkServer) FaultStats() FaultStats {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.fstats
}

// SetFaultProbs replaces the per-request fault probabilities mid-run —
// the chaos-timeline "fault surge" and "fault clear" lever. A server
// started without a FaultPlan gains one (seeded with seed, or 1 when 0);
// a server that already has a plan keeps its draw stream, script,
// blackouts and level filter, only the probabilities change. Cumulative
// FaultStats are preserved either way.
func (s *ChunkServer) SetFaultProbs(seed int64, reset, stall, closeProb, corrupt float64) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.plan == nil {
		s.plan = &FaultPlan{Seed: seed}
	}
	if s.faultRN == nil {
		s.faultRN = newFaultRand(seed)
	}
	s.plan.ResetProb = reset
	s.plan.StallProb = stall
	s.plan.CloseProb = closeProb
	s.plan.CorruptProb = corrupt
}

// ChunkBody returns the deterministic payload byte at absolute offset off
// of chunk (index, level): a cheap keyed byte generator that makes any
// mis-assembled range detectable. It is the definition; the servers and
// the client produce and verify bodies with fillChunkBody and
// checkChunkBody.
func ChunkBody(index, level int, off int64) byte {
	x := uint64(index)*1_000_003 + uint64(level)*7_777_777 + uint64(off)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return byte(x)
}

// payloadMul is ChunkBody's multiplier.
const payloadMul = 0xff51afd7ed558ccd

// fillChunkBody writes ChunkBody(index, level, off+i) into every dst[i].
// While the key stays below 2^33 ChunkBody's first fold is the identity,
// so the next key's product is this one's plus the multiplier: one add
// per byte. On a CPU with AVX2 the whole 32-byte runs go to fillAVX2,
// which steps 32 dword lanes through a carry table, 13 vector ops a run
// (4.1 → 8.6 GB/s on a 16 KiB fill on a 2-vCPU Xeon, BenchmarkPayloadKernel);
// the rest goes eight bytes to a loop turn. Keys from 2^33 up, and the
// last few bytes, take the definition byte by byte.
func fillChunkBody(dst []byte, index, level int, off int64) {
	k := uint64(index)*1_000_003 + uint64(level)*7_777_777 + uint64(off)
	if k < 1<<33 && uint64(len(dst)) <= 1<<33-k {
		y := k * payloadMul
		if n := len(dst) &^ 31; useAVX2 && n > 0 {
			fillAVX2(&dst[0], n, y)
			dst, off, y = dst[n:], off+int64(n), y+uint64(n)*payloadMul
		}
		for ; len(dst) >= 8; dst, off = dst[8:], off+8 {
			d := (*[8]byte)(dst)
			d[0], y = byte(y^y>>33), y+payloadMul
			d[1], y = byte(y^y>>33), y+payloadMul
			d[2], y = byte(y^y>>33), y+payloadMul
			d[3], y = byte(y^y>>33), y+payloadMul
			d[4], y = byte(y^y>>33), y+payloadMul
			d[5], y = byte(y^y>>33), y+payloadMul
			d[6], y = byte(y^y>>33), y+payloadMul
			d[7], y = byte(y^y>>33), y+payloadMul
		}
	}
	for i := range dst {
		dst[i] = ChunkBody(index, level, off+int64(i))
	}
}

// checkChunkBody reports whether src holds ChunkBody's bytes from offset
// off of chunk (index, level). It reads src and writes nothing: below key
// 2^33 the whole 32-byte runs go to checkAVX2 where the CPU has AVX2 (the
// fill's lanes, each run XORed with the source into one accumulator),
// the rest to checkWords, eight bytes a turn; keys from 2^33 up, and the
// last few bytes, are compared with the definition byte by byte, as the
// fill writes them.
func checkChunkBody(src []byte, index, level int, off int64) bool {
	k := uint64(index)*1_000_003 + uint64(level)*7_777_777 + uint64(off)
	if k < 1<<33 && uint64(len(src)) <= 1<<33-k {
		y := k * payloadMul
		if n := len(src) &^ 31; useAVX2 && n > 0 {
			if !checkAVX2(src[:n], y) {
				return false
			}
			src, off, y = src[n:], off+int64(n), y+uint64(n)*payloadMul
		}
		n := len(src) &^ 7
		if !checkWords(src[:n], y) {
			return false
		}
		src, off = src[n:], off+int64(n)
	}
	for i, b := range src {
		if b != ChunkBody(index, level, off+int64(i)) {
			return false
		}
	}
	return true
}

// checkWords reports whether src, a multiple of 8 bytes long, holds the
// payload stream whose first byte's product key·mul is y, comparing eight
// generated bytes at a time.
func checkWords(src []byte, y uint64) bool {
	for ; len(src) >= 8; src = src[8:] {
		var w [8]byte
		w[0], y = byte(y^y>>33), y+payloadMul
		w[1], y = byte(y^y>>33), y+payloadMul
		w[2], y = byte(y^y>>33), y+payloadMul
		w[3], y = byte(y^y>>33), y+payloadMul
		w[4], y = byte(y^y>>33), y+payloadMul
		w[5], y = byte(y^y>>33), y+payloadMul
		w[6], y = byte(y^y>>33), y+payloadMul
		w[7], y = byte(y^y>>33), y+payloadMul
		if w != *(*[8]byte)(src) {
			return false
		}
	}
	return true
}

// nextFault decides the fault (if any) for a chunk request at level:
// blackout windows first, then the scripted schedule, then seeded
// probability draws evaluated in a fixed order.
func (s *ChunkServer) nextFaultLocked(level int) FaultKind {
	if s.plan == nil || !s.plan.appliesTo(level) {
		return FaultNone
	}
	s.reqN++
	now := time.Since(s.start)
	for _, b := range s.plan.Blackouts {
		if now >= b.From && now < b.To {
			s.fstats.BlackoutResets++
			return FaultReset
		}
	}
	if k, ok := s.plan.Script[int(s.reqN)]; ok {
		s.countFaultLocked(k)
		return k
	}
	// Always draw all four so the random sequence depends only on the
	// seed and request ordinal, not on which probabilities are set.
	r1, r2, r3, r4 := s.faultRN.Float64(), s.faultRN.Float64(), s.faultRN.Float64(), s.faultRN.Float64()
	switch {
	case r1 < s.plan.ResetProb:
		s.fstats.Resets++
		return FaultReset
	case r2 < s.plan.StallProb:
		s.fstats.Stalls++
		return FaultStall
	case r3 < s.plan.CloseProb:
		s.fstats.PrematureCloses++
		return FaultClose
	case r4 < s.plan.CorruptProb:
		s.fstats.Corruptions++
		return FaultCorrupt
	}
	return FaultNone
}

func (s *ChunkServer) countFaultLocked(k FaultKind) {
	switch k {
	case FaultReset:
		s.fstats.Resets++
	case FaultStall:
		s.fstats.Stalls++
	case FaultClose:
		s.fstats.PrematureCloses++
	case FaultCorrupt:
		s.fstats.Corruptions++
	}
}
