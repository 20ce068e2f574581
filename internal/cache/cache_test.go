package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func body(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	k := Key{Video: "v", Level: 1, Chunk: 3}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := body(1024, 0xAB)
	if !c.Put(k, want) {
		t.Fatal("admissible body rejected")
	}
	got, ok := c.Get(k)
	if !ok || len(got) != len(want) || got[0] != 0xAB {
		t.Fatalf("Get = (%d bytes, %v)", len(got), ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 1024 {
		t.Errorf("stats after one put: %+v", st)
	}
}

func TestGetRangeSlicesAndBoundsChecks(t *testing.T) {
	c := New(Config{})
	k := Key{Video: "v", Chunk: 0}
	b := make([]byte, 100)
	for i := range b {
		b[i] = byte(i)
	}
	c.Put(k, b)
	got, ok := c.GetRange(k, 10, 19)
	if !ok || len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("GetRange(10,19) = (%v, %v)", got, ok)
	}
	for _, r := range [][2]int64{{-1, 5}, {5, 4}, {90, 100}, {100, 100}} {
		if _, ok := c.GetRange(k, r[0], r[1]); ok {
			t.Errorf("range %v accepted", r)
		}
	}
	if _, ok := c.GetRange(Key{Video: "absent"}, 0, 0); ok {
		t.Error("absent key served a range")
	}
}

func TestMaxLevelAdmission(t *testing.T) {
	c := New(Config{Levels: 2})
	if !c.Put(Key{Video: "v", Level: 0}, body(10, 1)) {
		t.Error("level 0 rejected under Levels 2")
	}
	if !c.Put(Key{Video: "v", Level: 1}, body(10, 1)) {
		t.Error("level 1 rejected under Levels 2")
	}
	if c.Put(Key{Video: "v", Level: 2}, body(10, 1)) {
		t.Error("level 2 admitted under Levels 2")
	}
	// 0 = admit everything (the default).
	all := New(Config{})
	if !all.Put(Key{Video: "v", Level: 99}, body(10, 1)) {
		t.Error("default config rejected a high level")
	}
	// The lowest level alone is a cap too: mpdash-edge -cache-max-level 0.
	low := New(Config{Levels: 1})
	if !low.Put(Key{Video: "v", Level: 0}, body(10, 1)) || low.Put(Key{Video: "v", Level: 1}, body(10, 1)) {
		t.Error("Levels 1 does not admit exactly level 0")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	// A body larger than one shard's budget can never fit.
	c := New(Config{CapacityBytes: 1024, Shards: 1})
	if c.Put(Key{Video: "v"}, body(2048, 1)) {
		t.Error("body over shard capacity admitted")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("rejected put left residue: %+v", st)
	}
}

func TestDoorkeeperMinSeen(t *testing.T) {
	c := New(Config{MinSeen: 2, Shards: 1})
	k := Key{Video: "v", Chunk: 1}
	fill := func() ([]byte, error) { return body(64, 7), nil }
	// First demand: miss, fill runs, but the doorkeeper bars the main
	// store; the body waits in the admission window.
	if _, hit, err := c.Fetch(k, fill); hit || err != nil {
		t.Fatalf("first fetch: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Entries-st.Windowed != 0 || st.Windowed != 1 {
		t.Fatalf("admitted on first sight despite MinSeen=2: %+v", st)
	}
	// Second demand: the window serves it, and the key, now seen twice,
	// moves to the main store without a second fill.
	if _, hit, err := c.Fetch(k, fill); !hit || err != nil {
		t.Fatalf("second fetch: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Entries-st.Windowed != 1 || st.Fills != 1 {
		t.Fatalf("not admitted on second sight: %+v", st)
	}
	// Third demand is a hit.
	if _, hit, err := c.Fetch(k, fill); !hit || err != nil {
		t.Fatalf("third fetch: hit=%v err=%v", hit, err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Single shard, room for exactly 4 × 256-byte bodies.
	c := New(Config{CapacityBytes: 1024, Shards: 1})
	key := func(i int) Key { return Key{Video: "v", Chunk: i} }
	for i := 0; i < 4; i++ {
		c.Put(key(i), body(256, byte(i)))
	}
	// Touch 0 so 1 becomes the LRU tail.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("resident key missed")
	}
	c.Put(key(4), body(256, 4))
	if _, ok := c.Get(key(1)); ok {
		t.Error("LRU-tail key 1 survived the eviction")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d evicted out of LRU order", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 4 {
		t.Errorf("stats after eviction: %+v", st)
	}
}

func TestFetchCountsAndPerVideo(t *testing.T) {
	c := New(Config{})
	fill := func() ([]byte, error) { return body(32, 1), nil }
	ka := Key{Video: "a", Chunk: 0}
	kb := Key{Video: "b", Chunk: 0}
	c.Fetch(ka, fill) // miss
	c.Fetch(ka, fill) // hit
	c.Fetch(ka, fill) // hit
	c.Fetch(kb, fill) // miss
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Fills != 2 || st.Collapsed != 0 {
		t.Errorf("stats: %+v", st)
	}
	pv := c.PerVideo()
	if pv["a"].Hits != 2 || pv["a"].Misses != 1 || pv["b"].Misses != 1 {
		t.Errorf("per-video: %+v", pv)
	}
	// The returned map is a copy, not a live view.
	pv["a"] = VideoStats{Hits: 99}
	if c.PerVideo()["a"].Hits != 2 {
		t.Error("PerVideo returned a live reference")
	}
}

func TestSingleflightCollapses64Misses(t *testing.T) {
	const n = 64
	c := New(Config{})
	k := Key{Video: "v", Level: 2, Chunk: 9}
	var fills atomic.Int64
	fill := func() ([]byte, error) {
		// Hold the flight open until every other goroutine has joined it,
		// so the collapse count is deterministic. The deadline only trips
		// on a wedged test; the Collapsed assertion below then explains.
		fills.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Collapsed < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return body(4096, 0x5A), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _, err := c.Fetch(k, fill)
			bodies[i], errs[i] = b, err
		}(i)
	}
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		if len(bodies[i]) != 4096 || bodies[i][0] != 0x5A {
			t.Fatalf("fetcher %d got a wrong body (%d bytes)", i, len(bodies[i]))
		}
	}
	st := c.Stats()
	if st.Fills != 1 {
		t.Errorf("Fills = %d, want 1", st.Fills)
	}
	if st.Hits+st.Misses != n {
		t.Errorf("Hits+Misses = %d, want %d", st.Hits+st.Misses, n)
	}
	if st.Misses != 1+st.Collapsed {
		t.Errorf("Misses (%d) != leader + Collapsed (%d)", st.Misses, 1+st.Collapsed)
	}
	// With the flight held open until all 64 joined, everyone after the
	// leader collapsed.
	if st.Collapsed != n-1 {
		t.Errorf("Collapsed = %d, want %d", st.Collapsed, n-1)
	}
}

func TestSingleflightLeaderErrorPropagates(t *testing.T) {
	c := New(Config{})
	k := Key{Video: "v", Chunk: 1}
	boom := errors.New("origin exhausted")
	const n = 16
	var fills atomic.Int64
	failing := func() ([]byte, error) {
		fills.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Collapsed < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return nil, boom
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Fetch(k, failing)
		}(i)
	}
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("failing fill ran %d times, want 1", got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d got %v, want the leader's error", i, err)
		}
	}
	// A failed fill caches nothing...
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed fill left residue: %+v", st)
	}
	// ...and the next Fetch retries from scratch.
	b, hit, err := c.Fetch(k, func() ([]byte, error) { return body(8, 1), nil })
	if err != nil || hit || len(b) != 8 {
		t.Fatalf("retry after failed flight: body=%d hit=%v err=%v", len(b), hit, err)
	}
	if _, hit, _ := c.Fetch(k, nil); !hit {
		t.Error("successful retry was not cached")
	}
}

func TestFetchConcurrentDistinctKeysRace(t *testing.T) {
	// Hammer many goroutines over overlapping keys through a small store
	// to let the race detector chew on shard locking and eviction.
	c := New(Config{CapacityBytes: 64 << 10, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Video: fmt.Sprintf("v%d", i%5), Level: g % 2, Chunk: i % 37}
				if _, _, err := c.Fetch(k, func() ([]byte, error) { return body(1024, byte(i)), nil }); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
	if st.Bytes > 64<<10 {
		t.Errorf("resident bytes %d exceed capacity", st.Bytes)
	}
}

// memPerRun is testing.AllocsPerRun with a byte count: op once, then runs
// times on one P; mallocs and bytes per run, truncated.
func memPerRun(runs int, op func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestHotPathAllocs holds the store's allocation budgets, per logical
// operation: a hit allocates nothing; an evicting Put and an uncontended
// singleflight miss may grow by at most 15 % over the counts recorded
// here. (A filled body's allocations: netmp's TestEdgeFillAllocs.)
func TestHotPathAllocs(t *testing.T) {
	const batch = 128

	// Get: shard resolve, map lookup, LRU promote over a resident set.
	get := New(Config{CapacityBytes: 2 << 20, Shards: 8})
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Video: "bench", Level: i % 3, Chunk: i}
		if !get.Put(keys[i], body(4096, byte(i))) {
			t.Fatalf("key %d not admitted", i)
		}
	}
	gi := 0
	getOp := func() {
		for k := 0; k < batch; k++ {
			if _, ok := get.Get(keys[gi%len(keys)]); !ok {
				t.Fatal("miss on a resident key")
			}
			gi++
		}
	}

	// Put under steady LRU eviction: the key set is twice the capacity,
	// and one pass over it before the count fills the store, so every
	// counted put pays one eviction.
	put := New(Config{CapacityBytes: 1 << 20, Shards: 8})
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = body(4096, byte(i))
	}
	pi := 0
	putOp := func() {
		for k := 0; k < batch; k++ {
			put.Put(Key{Video: "bench", Chunk: pi % len(bodies)}, bodies[pi%len(bodies)])
			pi++
		}
	}
	for pi < len(bodies) {
		putOp()
	}

	// The uncontended leader path end to end: flight registration, an
	// instant fill, the contest it loses (its key is new, as is every
	// key the store holds), its park in the admission window, which
	// drops its oldest body, flight close. Every call uses a fresh key so
	// it is always a miss. The 16,384 calls before the count
	// fill the store and let the shards' maps grow to the size that churn
	// keeps them at; counted from empty, the first thousand calls read
	// about 40 B of map growth more per call.
	sf := New(Config{CapacityBytes: 1 << 20, Shards: 8})
	sfBody := body(4096, 0)
	si := 0
	sfOp := func() {
		if _, _, err := sf.Fetch(Key{Video: "bench", Chunk: si}, func() ([]byte, error) {
			return sfBody, nil
		}); err != nil {
			t.Fatal(err)
		}
		si++
	}
	for si < 1<<14 {
		sfOp()
	}

	for _, c := range []struct {
		name                  string
		op                    func()
		perRun                int
		baseAllocs, baseBytes float64
	}{
		{"Get", getOp, batch, 0, 0},
		{"Put", putOp, batch, 1, 112},
		{"Fetch miss", sfOp, 1, 3, 272},
	} {
		a, b := memPerRun(1000, c.op)
		allocs, bytes := float64(a)/float64(c.perRun), float64(b)/float64(c.perRun)
		t.Logf("%s: %v allocs, %v B per op", c.name, allocs, bytes)
		if allocs > c.baseAllocs*1.15 || bytes > c.baseBytes*1.15 {
			t.Errorf("%s: %v allocs, %v B per op; want at most %v and %v (base × 1.15)",
				c.name, allocs, bytes, c.baseAllocs*1.15, c.baseBytes*1.15)
		}
	}
}

// TestChurnCountsPinned: 150 keys × 16 KiB through a 1 MiB single-shard
// store — room for 64, a contest filling the main store to 60 and a
// window of 4 — a cold sweep, then a re-read of its last 50 keys, each
// fetch one demand. By hand:
//   - Keys 0–59 fill a main store with room: 60 misses, all admitted.
//   - Keys 60–149, demanded once, tie the LRU tail's one demand and lose
//     the contest: 90 misses parked in the window, where keys 64–149
//     each drop the oldest. 86 evictions; main holds 0–59, window
//     146–149.
//   - Keys 100–145, demanded twice, beat the tail (0–45, once each): 46
//     misses that each evict one. Keys 146–149 are window hits whose
//     second demand beats the tail too: each moves to the main store,
//     evicting one of 46–49.
//
// 4 hits, 196 misses, 136 evictions. Recency alone (the contest off)
// reads 50, 150, 86: the re-read finds keys 100–149 resident.
func TestChurnCountsPinned(t *testing.T) {
	const wantHits, wantMisses, wantEvictions = 4, 196, 136
	c := New(Config{CapacityBytes: 1 << 20, Shards: 1})
	b := body(16<<10, 1)
	fetch := func(chunk int) {
		if _, _, err := c.Fetch(Key{Video: "churn", Chunk: chunk}, func() ([]byte, error) {
			return b, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		fetch(i)
	}
	for i := 100; i < 150; i++ {
		fetch(i)
	}
	if st := c.Stats(); st.Hits != wantHits || st.Misses != wantMisses || st.Evictions != wantEvictions {
		t.Errorf("churn: %d hits, %d misses, %d evictions; want %d, %d, %d",
			st.Hits, st.Misses, st.Evictions, wantHits, wantMisses, wantEvictions)
	}
}
