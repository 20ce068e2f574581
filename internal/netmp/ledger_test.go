package netmp

// Race-focused tests for the fetchState segment ledger: two workers
// hammer the front and back concurrently, with random failures feeding
// segments back through requeue. Run with -race; the invariants are
// exactly-once completion, no double-claim, no skipped segment.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// newFetchState returns a ledger of its own, as a Fetcher's is after
// FetchChunk resets it.
func newFetchState(total, requeueBudget int) *fetchState {
	st := &fetchState{}
	st.cond.L = &st.mu
	st.resetLocked(total, requeueBudget)
	return st
}

// claimFront claims a run of one from the front, -1 when nothing is
// claimable.
func claimFront(st *fetchState, pc *pathConn) int {
	if seg, n := st.claimRunFor(pc, 1, 0, 0, false, runCarry{}); n > 0 {
		return seg
	}
	return -1
}

// TestLedgerRunBounds: a fresh run is the least of the fresh segments,
// the greater of the preferred path's delivered segments and its carried
// window up to half the fresh ones, and one controllerTick of work at the lesser of the forecast and
// the rate delivered so far (the carried rate before the first delivery);
// a requeued segment, an engaged secondary or a path that can hedge each
// make it one.
func TestLedgerRunBounds(t *testing.T) {
	const seg = 1000
	fast := 1e12 // bytes/s: a forecast that never binds
	a, b := &pathConn{name: "a"}, &pathConn{name: "b"}
	for _, tc := range []struct {
		name      string
		total     int
		delivered int           // segments the preferred path has delivered
		elapsed   time.Duration // since the chunk started; 0 = a microsecond
		rate      float64
		carryWin  int     // segments of carried window
		carryRate float64 // carried first-run rate
		engaged   int
		hedges    bool
		requeued  bool
		want      int
	}{
		{name: "slow start", total: 32, delivered: 4, rate: fast, want: 4},
		{name: "nothing delivered yet", total: 32, rate: fast, want: 1},
		{name: "requeued segment", total: 32, delivered: 16, rate: fast, requeued: true, want: 1},
		{name: "secondary engaged", total: 32, delivered: 16, rate: fast, engaged: 1, want: 1},
		{name: "path can hedge", total: 32, delivered: 16, rate: fast, hedges: true, want: 1},
		{name: "forecast caps", total: 32, delivered: 16, rate: 3.5 * seg / controllerTick.Seconds(), want: 3},
		{name: "forecast under a segment", total: 32, delivered: 16, rate: 0.9 * seg / controllerTick.Seconds(), want: 1},
		{name: "no forecast", total: 32, delivered: 16, want: 1},
		{name: "delivered rate caps a burst-inflated forecast", total: 32, delivered: 16, elapsed: 5 * controllerTick, rate: fast, want: 3},
		{name: "fresh segments cap", total: 5, delivered: 16, rate: fast, want: 5},
		{name: "carried window", total: 32, rate: fast, carryWin: 8, carryRate: fast, want: 8},
		{name: "carried window over fewer delivered", total: 32, delivered: 4, rate: fast, carryWin: 16, carryRate: fast, want: 16},
		{name: "delivered over a smaller carried window", total: 32, delivered: 8, rate: fast, carryWin: 4, carryRate: fast, want: 8},
		{name: "carried rate caps the first run", total: 32, rate: fast, carryWin: 32, carryRate: 3.5 * seg / controllerTick.Seconds(), want: 3},
		{name: "delivered rate, not the carried one, after the first run", total: 32, delivered: 2, elapsed: controllerTick, rate: fast, carryWin: 32, carryRate: fast, want: 2},
		{name: "cold carry", total: 32, rate: fast, want: 1},
		{name: "half the fresh segments cap a carried window", total: 32, rate: fast, carryWin: 32, carryRate: fast, want: 16},
		{name: "half of an odd count caps a carried window", total: 5, rate: fast, carryWin: 32, carryRate: fast, want: 2},
		{name: "forecast caps a carried window", total: 32, rate: 3.5 * seg / controllerTick.Seconds(), carryWin: 32, carryRate: fast, want: 3},
		{name: "secondary engaged under a carried window", total: 32, rate: fast, carryWin: 32, carryRate: fast, engaged: 1, want: 1},
		{name: "path can hedge under a carried window", total: 32, rate: fast, carryWin: 32, carryRate: fast, hedges: true, want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newFetchState(tc.total, 3)
			st.primaryBytes = int64(tc.delivered) * seg
			st.engaged.Store(int32(tc.engaged))
			if tc.elapsed == 0 {
				tc.elapsed = time.Microsecond
			}
			if tc.requeued {
				st.requeue(st.claimBackFor(b), b, nil)
			}
			carry := runCarry{win: int64(tc.carryWin) * seg, rate: tc.carryRate}
			first, n := st.claimRunFor(a, seg, tc.rate, tc.elapsed, tc.hedges, carry)
			if n != tc.want {
				t.Fatalf("run of %d, want %d", n, tc.want)
			}
			if !tc.requeued && st.reach != int64(tc.delivered+n)*seg {
				t.Errorf("reach %d bytes after a run of %d on %d delivered", st.reach, n, tc.delivered)
			}
			if st.inflight != n {
				t.Errorf("inflight %d after claiming %d", st.inflight, n)
			}
			if tc.requeued && first != tc.total-1 {
				t.Errorf("claimed %d, want the requeued %d", first, tc.total-1)
			}
			if !tc.requeued && (first != 0 || st.front != n) {
				t.Errorf("claimed [%d, +%d), front now %d", first, n, st.front)
			}
		})
	}
}

// TestLedgerCompleteWakesOnlyAtTheEnd: every party parked on the ledger
// waits for claimable work, a tick, a let-go or the chunk's end, so a
// completed segment wakes none of them until it is the last.
func TestLedgerCompleteWakesOnlyAtTheEnd(t *testing.T) {
	const total = 32
	b := &pathConn{name: "b"}
	st := newFetchState(total, 3)
	for i := 0; i < total; i++ {
		st.claimBackFor(b)
	}
	parked, wakes, done := false, 0, make(chan struct{})
	go func() {
		defer close(done)
		st.mu.Lock()
		defer st.mu.Unlock()
		for parked = true; !st.stoppedLocked(); wakes++ {
			st.cond.Wait()
		}
	}()
	for {
		st.mu.Lock()
		p := parked
		st.mu.Unlock()
		if p {
			break
		}
		runtime.Gosched()
	}
	for i := 0; i < total; i++ {
		st.complete(false, 1)
		time.Sleep(50 * time.Microsecond) // a woken waiter re-parks before the next
	}
	<-done
	if wakes != 1 {
		t.Errorf("%d wake-ups over %d completions, want 1", wakes, total)
	}
}

func TestLedgerSplitsWithoutOverlap(t *testing.T) {
	a, b := &pathConn{name: "a"}, &pathConn{name: "b"}
	st := newFetchState(10, 3)
	var claimed []int
	for {
		seg := claimFront(st, a)
		if seg < 0 {
			break
		}
		claimed = append(claimed, seg)
		st.complete(true, 1)
		if seg2 := st.claimBackFor(b); seg2 >= 0 {
			claimed = append(claimed, seg2)
			st.complete(true, 1)
		}
	}
	if st.done != st.total {
		t.Fatalf("ledger not finished after draining: %d claimed", len(claimed))
	}
	seen := make(map[int]bool)
	for _, s := range claimed {
		if seen[s] {
			t.Fatalf("segment %d claimed twice", s)
		}
		seen[s] = true
	}
	for s := 0; s < 10; s++ {
		if !seen[s] {
			t.Fatalf("segment %d never claimed", s)
		}
	}
}

func TestLedgerRequeuePrefersOtherPath(t *testing.T) {
	a, b := &pathConn{name: "a"}, &pathConn{name: "b"}
	st := newFetchState(4, 3)
	seg := claimFront(st, a)
	st.requeue(seg, a, nil)
	// a must not immediately re-claim its own failure while fresh work
	// remains…
	if got := claimFront(st, a); got == seg {
		t.Fatalf("path a re-claimed its own failed segment %d over fresh work", seg)
	} else {
		st.complete(true, 1)
	}
	// …but b recovers it ahead of fresh front segments.
	if got := claimFront(st, b); got != seg {
		t.Fatalf("path b claimed %d, want requeued %d", got, seg)
	}
	st.complete(true, 1)
}

func TestLedgerSelfRetryWhenAlone(t *testing.T) {
	a := &pathConn{name: "a"}
	st := newFetchState(2, 3)
	s0 := claimFront(st, a)
	st.complete(true, 1)
	s1 := claimFront(st, a)
	st.requeue(s1, a, nil)
	// No fresh work left: the sole survivor retries its own failure.
	if got := claimFront(st, a); got != s1 {
		t.Fatalf("claim = %d, want self-requeued %d", got, s1)
	}
	st.complete(true, 1)
	if st.done != st.total {
		t.Fatal("not finished")
	}
	_ = s0
}

func TestLedgerBudgetAborts(t *testing.T) {
	a := &pathConn{name: "a"}
	st := newFetchState(1, 2)
	for i := 0; i < 3; i++ {
		seg := claimFront(st, a)
		if seg < 0 {
			t.Fatalf("claim %d returned nothing", i)
		}
		st.requeue(seg, a, nil)
	}
	if !st.failed {
		t.Fatal("budget of 2 not enforced after 3 requeues")
	}
	if claimFront(st, a) >= 0 || st.claimBackFor(a) >= 0 {
		t.Fatal("aborted ledger still hands out segments")
	}
}

func TestLedgerConcurrentExactlyOnce(t *testing.T) {
	// Two claimers race front and back while ~30% of claims fail and
	// requeue. Every segment must complete exactly once; under -race this
	// also exercises the locking.
	const total = 400
	a, b := &pathConn{name: "a"}, &pathConn{name: "b"}
	st := newFetchState(total, 64)

	var mu sync.Mutex
	completions := make(map[int]int)

	worker := func(pc *pathConn, fromBack bool, seed int64) func() {
		return func() {
			rng := rand.New(rand.NewSource(seed))
			for {
				if st.view().stopped {
					return
				}
				var seg int
				if fromBack {
					seg = st.claimBackFor(pc)
				} else {
					seg = claimFront(st, pc)
				}
				if seg < 0 {
					continue
				}
				if rng.Float64() < 0.3 {
					st.requeue(seg, pc, nil)
					continue
				}
				mu.Lock()
				completions[seg]++
				mu.Unlock()
				st.complete(true, 1)
			}
		}
	}

	var wg sync.WaitGroup
	for i, w := range []func(){worker(a, false, 1), worker(b, true, 2), worker(a, false, 3), worker(b, true, 4)} {
		wg.Add(1)
		go func(i int, w func()) { defer wg.Done(); w() }(i, w)
	}
	wg.Wait()

	if st.failed {
		t.Fatal("ledger aborted despite a generous budget")
	}
	if st.done != st.total {
		t.Fatal("ledger not finished")
	}
	for seg := 0; seg < total; seg++ {
		if completions[seg] != 1 {
			t.Errorf("segment %d completed %d times", seg, completions[seg])
		}
	}
}
