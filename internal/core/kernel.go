package core

import "time"

// This file states the paper's two rules once each, as pure functions.
// The drivers — Scheduler.evaluate (packet-level simulator),
// SimulateOnline (slot simulator), the netmp.Fetcher controller (real
// sockets), abr.Adapter and netmp.Streamer — only gather inputs and
// apply the answer.

// Engage is Algorithm 1 lines 13–21, generalized to N paths in cost order
// (§4 "Optimality"): feed data from low-cost to high-cost interfaces and
// turn on the minimal prefix of secondaries whose predicted capacity
// covers need within windowSec, the time left of α·D. est[0] is the
// preferred path's throughput estimate (it always runs), est[1:] the
// secondaries' in ascending cost order; need is in the estimates' unit
// times seconds. It returns how many leading secondaries to enable.
//
// With no window left every secondary goes on. A secondary that has
// never been measured (estimate ≤ 0) is assumed to suffice, so one dark
// path is probed at a time rather than all of them cascading on at once.
func Engage(need, windowSec float64, est []float64) int {
	if windowSec <= 0 {
		return len(est) - 1
	}
	capacity := est[0] * windowSec
	on := 0
	for _, e := range est[1:] {
		if capacity >= need {
			break
		}
		on++
		if e <= 0 {
			break
		}
		capacity += e * windowSec
	}
	return on
}

// PhiFrac places the deadline-extension threshold Φ at this fraction of
// the buffer capacity (§5.2.1); abr.Adapter and netmp.Streamer share it.
const PhiFrac = 0.8

// ChunkDeadline is the §5.1 deadline rule. The base window D is the
// chunk's playout duration (duration-based: stable buffer in the short
// term) or size/nominal-bitrate (rate-based: stable buffer in the long
// run; falls back to the duration when the nominal rate is unknown). A
// buffer above the threshold phi extends D by the excess. It returns the
// window and the extension it contains.
func ChunkDeadline(rateBased bool, size int64, nominalBps float64, duration, buffer, phi time.Duration) (d, extension time.Duration) {
	d = duration
	if rateBased && nominalBps > 0 {
		d = time.Duration(float64(size*8) / nominalBps * float64(time.Second))
	}
	if buffer > phi {
		extension = buffer - phi
	}
	return d + extension, extension
}
