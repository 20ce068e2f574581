package cache

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPagedBodyBlocksAndRelease(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, Shards: 1})
	k := Key{Video: "v", Chunk: 1}
	const size = 2*PageSize + 100
	b, hit, err := c.FetchPaged(k, size, true, func(b *Body) error {
		for off := int64(0); off < size; {
			blk := b.Block(off, size-off)
			for i := range blk {
				blk[i] = byte(off + int64(i))
			}
			off += int64(len(blk))
		}
		return nil
	})
	if err != nil || hit || b.Len() != size {
		t.Fatalf("FetchPaged: len %d hit=%v err=%v", b.Len(), hit, err)
	}
	// A block never crosses a page.
	if blk := b.Block(PageSize-10, 64); len(blk) != 10 || blk[0] != byte((PageSize-10)&0xFF) {
		t.Errorf("block across a page end: %d bytes from %d", len(blk), blk[0])
	}
	if got, ok := c.GetRange(k, PageSize-2, PageSize+1); !ok || !bytes.Equal(got, []byte{0xFE, 0xFF, 0, 1}) {
		t.Errorf("GetRange across pages = %v, %v", got, ok)
	}
	if got, ok := c.Get(k); !ok || len(got) != size || got[size-1] != byte((size-1)&0xFF) {
		t.Errorf("Get of a paged body: %d bytes, %v", len(got), ok)
	}
	if n := b.refs.Load(); n != 2 {
		t.Errorf("after Get and GetRange a body held by store and caller has %d refs", n)
	}
	b.Release()
	if b2, hit, _ := c.FetchPaged(k, size, true, nil); !hit || b2 != b {
		t.Error("resident paged body not served as a hit")
	} else {
		b2.Release()
	}
	lone := newPagedBody(k, 10)
	lone.Release()
	defer func() {
		if recover() == nil {
			t.Error("a Release past the last reference did not panic")
		}
	}()
	lone.Release()
}

func TestFlatBodyIsNeverCopiedOrRecycled(t *testing.T) {
	c := New(Config{CapacityBytes: 4096, Shards: 1})
	shared := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		c.Put(Key{Video: "v", Chunk: i}, shared) // most of them evicted
	}
	got, ok := c.Get(Key{Video: "v", Chunk: 63})
	if !ok || &got[0] != &shared[0] {
		t.Fatal("Get did not return the slice Put stored")
	}
	b, hit, err := c.FetchPaged(Key{Video: "v", Chunk: 63}, 1024, true, nil)
	if err != nil || !hit || b.pages != nil || &b.Block(0, 1)[0] != &shared[0] {
		t.Fatal("FetchPaged of a Put body is not that body")
	}
	b.Release()
}

// TestBodyReferenceContract drives the store from several goroutines
// through random interleavings of hits, misses that other goroutines
// collapse onto, failed fills, Puts, evictions, fills parked in the
// admission window, window hits, promotions and drops, and out-of-order
// Releases. After every step it checks that no page is both in the pool
// and in a live body, that no live body has lost its count, that the
// resident bytes, main store and window together, fit the capacity, and
// that every body a goroutine holds reads as it did when it was handed
// over. At the end every page is in the main store, in the window or in
// the pool.
func TestBodyReferenceContract(t *testing.T) {
	const (
		workers  = 4
		steps    = 400
		keys     = 16
		capacity = 16 * PageSize // a window of one page: a third of the bodies fit it
	)
	var pmu sync.Mutex
	pooled := map[*page]bool{}
	handed := map[*page]bool{}
	testHookPage = func(p *page, in bool) {
		pmu.Lock()
		defer pmu.Unlock()
		if in && pooled[p] {
			t.Error("a page went back to the pool twice")
		}
		pooled[p] = in
		handed[p] = true
	}
	defer func() { testHookPage = nil }()
	isPooled := func(p *page) bool {
		pmu.Lock()
		defer pmu.Unlock()
		return pooled[p]
	}

	c := New(Config{CapacityBytes: capacity, Shards: 2})
	key := func(i int) Key { return Key{Video: "prop", Chunk: i} }
	size := func(k Key) int64 { return 1 + int64(k.Chunk*5003)%(3*PageSize) }
	pattern := func(k Key, off int64) byte { return byte(int64(k.Chunk)*31 + off) }
	boom := errors.New("origin down")
	fill := func(rng *rand.Rand) func(*Body) error {
		fail, slow := rng.Intn(6) == 0, rng.Intn(2) == 0
		return func(b *Body) error {
			if slow {
				time.Sleep(50 * time.Microsecond) // let other goroutines collapse onto it
			}
			if fail {
				return boom
			}
			for off := int64(0); off < b.Len(); {
				blk := b.Block(off, b.Len()-off)
				for i := range blk {
					blk[i] = pattern(b.key, off+int64(i))
				}
				off += int64(len(blk))
			}
			return nil
		}
	}
	// checkLive fails the test if b has lost its count, lies in the pool
	// or does not read as want.
	checkLive := func(b *Body, want []byte) {
		if b.pages != nil && b.refs.Load() < 1 {
			t.Errorf("%v: live body with %d references", b.key, b.refs.Load())
		}
		for _, p := range b.pages {
			if p == nil || isPooled(p) {
				t.Errorf("%v: a live body's page is in the pool", b.key)
			}
		}
		if want != nil && !bytes.Equal(b.appendRange(nil, 0, b.size), want) {
			t.Errorf("%v: a held body changed before its Release", b.key)
		}
	}
	var windowUsed atomic.Bool
	checkStore := func() {
		for _, s := range c.shards {
			s.mu.Lock()
			for _, b := range s.entries {
				checkLive(b, nil)
			}
			s.mu.Unlock()
		}
		c.wmu.Lock()
		for _, b := range c.windowed {
			checkLive(b, nil)
		}
		resident, windowBytes := c.resident, c.windowBytes
		c.wmu.Unlock()
		if resident > capacity || resident < 0 || windowBytes > capacity/16 || windowBytes < 0 {
			t.Errorf("store holds %d bytes, %d in the window; capacity %d", resident, windowBytes, capacity)
		}
		if windowBytes > 0 {
			windowUsed.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			type held struct {
				b    *Body
				want []byte
			}
			var mine []held
			for step := 0; step < steps && !t.Failed(); step++ {
				k := key(rng.Intn(keys))
				switch op := rng.Intn(10); {
				case op < 5: // a demand or another range: hit, miss or collapse
					b, _, err := c.FetchPaged(k, size(k), rng.Intn(3) != 0, fill(rng))
					if err != nil {
						if !errors.Is(err, boom) {
							t.Errorf("FetchPaged: %v", err)
						}
						break
					}
					want := b.appendRange(nil, 0, b.size)
					if b.pages != nil {
						for i, v := range want {
							if v != pattern(k, int64(i)) {
								t.Errorf("%v: served a body that is not its fill's", k)
								break
							}
						}
					}
					mine = append(mine, held{b, want})
				case op < 8 && len(mine) > 0: // release one, in any order
					i := rng.Intn(len(mine))
					checkLive(mine[i].b, mine[i].want)
					mine[i].b.Release()
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case op == 8: // a caller's body displaces filled ones
					c.Put(k, make([]byte, size(k)))
				default: // a probe copies a filled body out
					if got, ok := c.Get(k); ok && int64(len(got)) != size(k) {
						t.Errorf("%v: Get returned %d bytes", k, len(got))
					}
				}
				for _, h := range mine {
					checkLive(h.b, h.want)
				}
				checkStore()
			}
			for _, h := range mine {
				checkLive(h.b, h.want)
				h.b.Release()
			}
		}(rand.New(rand.NewSource(int64(w) + 1)))
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits == 0 || st.Collapsed == 0 || st.Evictions == 0 || !windowUsed.Load() {
		t.Errorf("the interleaving missed a case: %+v (window used: %v)", st, windowUsed.Load())
	}
	if st.Misses != st.Fills+st.Collapsed {
		t.Errorf("misses %d != fills %d + collapsed %d", st.Misses, st.Fills, st.Collapsed)
	}
	// Every page handed out is now resident, in the main store or the
	// window and held by the store alone, or back in the pool; and the
	// resident count is the bodies' bytes.
	resident := map[*page]bool{}
	var bytes int64
	stored := func(b *Body) {
		if n := b.refs.Load(); b.pages != nil && n != 1 {
			t.Errorf("%v: resident body with %d references after every holder released", b.key, n)
		}
		for _, p := range b.pages {
			resident[p] = true
		}
		bytes += b.size
	}
	for _, s := range c.shards {
		for _, b := range s.entries {
			stored(b)
		}
	}
	for _, b := range c.windowed {
		stored(b)
	}
	if bytes != c.resident || bytes > capacity {
		t.Errorf("bodies hold %d bytes, resident counts %d; capacity %d", bytes, c.resident, capacity)
	}
	for p := range handed {
		if !pooled[p] && !resident[p] {
			t.Error("a page is neither resident nor back in the pool")
		}
	}
}
