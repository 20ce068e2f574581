package netmp

// Race-focused tests for the fetchState segment ledger: two workers
// hammer the front and back concurrently, with random failures feeding
// segments back through requeue. Run with -race; the invariants are
// exactly-once completion, no double-claim, no skipped segment.

import (
	"math/rand"
	"sync"
	"testing"
)

// newFetchState returns a ledger of its own, as a Fetcher's is after
// FetchChunk resets it.
func newFetchState(total, requeueBudget int) *fetchState {
	st := &fetchState{}
	st.cond.L = &st.mu
	st.resetLocked(total, requeueBudget)
	return st
}

func TestLedgerSplitsWithoutOverlap(t *testing.T) {
	a, b := &pathConn{name: "a"}, &pathConn{name: "b"}
	st := newFetchState(10, 3)
	var claimed []int
	for {
		seg := st.claimFrontFor(a)
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
	seg := st.claimFrontFor(a)
	st.requeue(seg, a, nil)
	// a must not immediately re-claim its own failure while fresh work
	// remains…
	if got := st.claimFrontFor(a); got == seg {
		t.Fatalf("path a re-claimed its own failed segment %d over fresh work", seg)
	} else {
		st.complete(true, 1)
	}
	// …but b recovers it ahead of fresh front segments.
	if got := st.claimFrontFor(b); got != seg {
		t.Fatalf("path b claimed %d, want requeued %d", got, seg)
	}
	st.complete(true, 1)
}

func TestLedgerSelfRetryWhenAlone(t *testing.T) {
	a := &pathConn{name: "a"}
	st := newFetchState(2, 3)
	s0 := st.claimFrontFor(a)
	st.complete(true, 1)
	s1 := st.claimFrontFor(a)
	st.requeue(s1, a, nil)
	// No fresh work left: the sole survivor retries its own failure.
	if got := st.claimFrontFor(a); got != s1 {
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
		seg := st.claimFrontFor(a)
		if seg < 0 {
			t.Fatalf("claim %d returned nothing", i)
		}
		st.requeue(seg, a, nil)
	}
	if !st.failed {
		t.Fatal("budget of 2 not enforced after 3 requeues")
	}
	if st.claimFrontFor(a) >= 0 || st.claimBackFor(a) >= 0 {
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
					seg = st.claimFrontFor(pc)
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
