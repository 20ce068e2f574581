// Package netmp is the real-socket counterpart of the simulator: a
// userspace multipath chunk fetcher over plain TCP connections (the
// "userspace multi-socket chunk scheduler" approximation of MP-DASH). A
// ChunkServer serves deterministic chunk bytes over per-path
// rate-shaped listeners; a Fetcher downloads each chunk over a preferred
// and a secondary connection with MP-DASH's deadline logic: the secondary
// socket is engaged only when the preferred path alone would miss the
// chunk deadline.
package netmp

import (
	"context"
	"sync"
	"time"
)

// TokenBucket shapes a byte stream to an average rate with a burst
// allowance. It is safe for concurrent use.
type TokenBucket struct {
	clk    Clock // injectable wall clock (nil = time.Now); set at construction
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // max accumulated bytes
	tokens float64
	last   time.Time
}

// NewTokenBucket creates a bucket; rate in bytes/second. A non-positive
// rate means unshaped (Take returns immediately).
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return newTokenBucketClocked(rate, burst, nil)
}

// newTokenBucketClocked is the constructor with an injectable clock.
func newTokenBucketClocked(rate, burst float64, clk Clock) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{clk: clk, rate: rate, burst: burst, tokens: burst, last: clk.now()}
}

// Take blocks until n bytes of budget are available or ctx is done. It
// returns ctx.Err if cancelled. Requests larger than the burst are
// honoured by letting the balance go negative (a debt the bucket must
// refill before the next request), which preserves the long-run rate for
// any request size.
func (tb *TokenBucket) Take(ctx context.Context, n int) error {
	var t *time.Timer
	err := tb.takeOn(ctx, n, &t)
	if t != nil {
		t.Stop()
	}
	return err
}

// takeOn is Take sleeping on *t, a timer its caller owns and reuses (see
// sleepOn): a connection that waits on every block makes one timer in
// its life, not one per refused poll.
func (tb *TokenBucket) takeOn(ctx context.Context, n int, t **time.Timer) error {
	for {
		wait := tb.take(n)
		if wait == 0 {
			return nil
		}
		if err := sleepOn(ctx, wait, t); err != nil {
			return err
		}
	}
}

// sleepOn sleeps d on *t, or until ctx is done, and returns ctx.Err then.
// *t is made on the first sleep and Reset for each later one; between
// sleeps it is idle (fired and received, or stopped and drained), so a
// Reset never meets a stale fire. The drain after a losing Stop relies on
// the asynchronous timer channel that go.mod's go 1.22 line keeps; under
// the synchronous channel a Stop on an unreceived timer returns true and
// the drain never runs.
func sleepOn(ctx context.Context, d time.Duration, t **time.Timer) error {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	tm := *t
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		if !tm.Stop() {
			<-tm.C
		}
		return ctx.Err()
	}
}

// take is Take without the wait: it takes n bytes of budget and returns
// 0 when Take would return at once, or else how long to wait before
// asking again (at least a millisecond), taking nothing.
func (tb *TokenBucket) take(n int) time.Duration {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.rate <= 0 {
		return 0
	}
	now := tb.clk.now()
	tb.tokens = min(tb.tokens+now.Sub(tb.last).Seconds()*tb.rate, tb.burst)
	tb.last = now
	if tb.tokens > 0 {
		tb.tokens -= float64(n)
		return 0
	}
	return max(time.Duration(-tb.tokens/tb.rate*float64(time.Second)), time.Millisecond)
}

// SetRate changes the bucket's rate in place (bytes/second; non-positive
// = unshaped), settling accrued tokens at the old rate first. Safe for
// concurrent use with Take — blocked takers observe the new rate on
// their next refill check.
func (tb *TokenBucket) SetRate(rate float64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.clk.now()
	if tb.rate > 0 {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	tb.rate = rate
}
