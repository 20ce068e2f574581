// Package cache implements the edge-tier chunk cache: a sharded store of
// full chunk bodies that admits by demand (TinyLFU, Einziger, Friedman &
// Manes 2017), with a per-rendition level cap and singleflight request
// collapsing, so N concurrent misses for the same (video, chunk,
// rendition) key trigger exactly one origin fetch while every waiter
// still gets the body — the exactly-once ledger contract extended across
// sessions.
//
// Each shard counts demands per key in a fixed-size count-min sketch of
// 4-bit counters, halved once the shard has seen sampleFactor times its
// resident entries in demands. A completed fill enters the shard's LRU
// only if its demand beats that of every body it would evict (and meets
// the level cap and the MinSeen doorkeeper); otherwise it waits in one
// cache-wide FIFO admission window, at most CapacityBytes/16 and counted
// inside CapacityBytes, where the rest of its fetch's ranges and the next
// demand find it as a hit, and a demand that now wins promotes it. A
// fill that wins fills its shard only to its share of the capacity
// less the window's, so a refused fill displaces no resident body. A
// body too large for the window, and every Put, is admitted by the
// doorkeeper and recency alone, to the shard's whole share.
//
// Entries hold whole chunks; byte-range requests are served by slicing
// (GetRange, Body.Block), which is what makes the collapsing effective:
// an MP-DASH client splits one chunk into disjoint range requests across
// two paths, and every one of them folds into a single whole-chunk fill.
//
// The cache owns the memory of the bodies it fills (FetchPaged): a run
// of PageSize pages from a page pool, held by counted references — the
// store's, and one per caller FetchPaged returned it to — and returned to
// the pool by the last Release, so the next fill reuses them. A body a
// caller hands in (Put, Fetch's fill) is stored as it is: never copied,
// never recycled.
package cache

import (
	"sync"
	"sync/atomic"

	"mpdash/internal/obs"
	"mpdash/internal/stats"
)

// Key identifies one cached object: a (video, rendition, chunk) triple.
type Key struct {
	Video string
	Level int
	Chunk int
}

// Config bounds a Cache. The zero value selects the defaults noted on
// each field.
type Config struct {
	// CapacityBytes caps the total payload bytes held across all shards.
	// Default 64 MiB.
	CapacityBytes int64
	// Shards is the number of independently locked shards. Default 16.
	Shards int
	// Levels is how many rendition levels, from the lowest, the main
	// store admits (the per-rendition admission policy: top-bitrate
	// long-tail renditions can be barred from displacing popular low
	// ones). A fill above the cap waits in the admission window and is
	// never promoted, so the rest of its fetch's ranges still hit. 0 =
	// every level.
	Levels int
	// MinSeen is the doorkeeper threshold: a key enters the main store
	// only once its shard's sketch counts MinSeen demands for it; a fill
	// it refuses waits in the admission window. 0 or 1 admits on first
	// miss. Default 1.
	MinSeen int
}

func (c Config) withDefaults() Config {
	if c.CapacityBytes <= 0 {
		c.CapacityBytes = 64 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MinSeen <= 0 {
		c.MinSeen = 1
	}
	return c
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Collapsed counts singleflight waiters that piggybacked on another
	// request's origin fill (the leader itself counts as one miss, not
	// as collapsed).
	Collapsed int64
	// Fills counts origin fetches actually performed by singleflight
	// leaders (successful or not).
	Fills int64
	// Entries and Bytes are the bodies resident, main store and
	// admission window together; Windowed and WindowBytes are the
	// window's share.
	Entries     int64
	Bytes       int64
	Windowed    int64
	WindowBytes int64
}

// VideoStats is one video's request outcome tally, for the
// popularity-rank hit-rate report.
type VideoStats struct {
	Hits   int64
	Misses int64
}

// Cache is the sharded chunk store. Safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	collapsed atomic.Int64
	fills     atomic.Int64

	vmu    sync.Mutex
	videos map[string]*VideoStats

	// wmu guards the admission window and resident. It is taken under a
	// shard's lock, never the other way round, by every operation that
	// changes the bytes the store holds.
	wmu         sync.Mutex
	window      Body // sentinel: window.next is the oldest body, window.prev the newest
	windowed    map[Key]*Body
	windowBytes int64
	windowCap   int64 // CapacityBytes/16
	resident    int64 // main store and window bytes, at most CapacityBytes

	// cobs is the published telemetry handle (telemetry.go); nil = off.
	cobs atomic.Pointer[cacheObs]
}

// PageSize is the page of a filled body: FetchPaged hands its fill a run
// of pages this size, and Body.Block never crosses one.
const PageSize = 16 << 10

type page [PageSize]byte

// pagePool holds the pages of released bodies until the next fill.
var pagePool = sync.Pool{New: func() any { return new(page) }}

var (
	// poisonPages overwrites every page the pool gets back with
	// poisonByte, so a use after release reaches a client as a corrupt
	// body; the mpdash_poison build tag sets it (poison.go).
	poisonPages bool
	// testHookPage, nil outside tests, sees every page as it leaves the
	// pool for a new body (pooled false) and as it goes back (true).
	testHookPage func(p *page, pooled bool)
)

const poisonByte = 0xDB

// Body is one stored chunk body, and the store's entry for it. It is
// either a caller's slice (flat), which is never recycled, or a run of
// pages the cache filled, which the last Release returns to the pool.
// A filled body counts its holders, each owning one reference: the
// store while the body is resident, and each caller FetchPaged returned
// it to, collapsed waiters of its fill included (Fetch, Get and GetRange
// hold one while they copy). A holder reads the body until its Release
// and never after it; nobody writes to it once the fill that made it has
// returned. A flat body is not counted: Release is a no-op on it.
type Body struct {
	key Key
	// prev and next link the shard's LRU list under its lock, or the
	// admission window under the cache's wmu; once the body leaves its
	// list, next chains one store operation's evictions.
	prev, next *Body
	size       int64
	flat       []byte
	pages      []*page // nil for a flat body
	refs       atomic.Int32
	hash       uint32 // the key's sketch hash, set before the store sees the body
}

// retain adds n references to a filled body.
func (b *Body) retain(n int32) {
	if b.pages != nil {
		b.refs.Add(n)
	}
}

func flatBody(k Key, b []byte) *Body {
	return &Body{key: k, size: int64(len(b)), flat: b}
}

// newPagedBody takes size bytes of pages from the pool, with one
// reference for the caller. Their contents are arbitrary.
func newPagedBody(k Key, size int64) *Body {
	b := &Body{key: k, size: size, pages: make([]*page, (size+PageSize-1)/PageSize)}
	b.refs.Store(1)
	for i := range b.pages {
		p := pagePool.Get().(*page)
		if testHookPage != nil {
			testHookPage(p, false)
		}
		b.pages[i] = p
	}
	return b
}

// Len is the body's length in bytes.
func (b *Body) Len() int64 { return b.size }

// Block returns up to n bytes of the body from off, cut where off's page
// ends: a flat body's bytes are one block, a filled body's are a block
// per page. The bytes are the body's own, valid until the holder's
// Release; only the fill FetchPaged hands the body to may write them.
func (b *Body) Block(off, n int64) []byte {
	if b.pages == nil {
		return b.flat[off : off+n]
	}
	o := off % PageSize
	return b.pages[off/PageSize][o:min(o+n, PageSize)]
}

// appendRange appends bytes [from, to) of the body to dst.
func (b *Body) appendRange(dst []byte, from, to int64) []byte {
	for from < to {
		blk := b.Block(from, to-from)
		dst = append(dst, blk...)
		from += int64(len(blk))
	}
	return dst
}

// Release drops the holder's reference. The last one returns a filled
// body's pages to the pool; a flat body is left to the garbage
// collector.
func (b *Body) Release() {
	if b.pages == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("cache: Body released more often than it was held")
	}
	for i, p := range b.pages {
		if poisonPages {
			for j := range p {
				p[j] = poisonByte
			}
		}
		if testHookPage != nil {
			testHookPage(p, true)
		}
		b.pages[i] = nil
		pagePool.Put(p)
	}
}

// flight is one in-progress singleflight fill. Waiters join under the
// shard lock and block on done; the leader publishes body/err, and one
// reference to the body per waiter, before closing it.
type flight struct {
	done    chan struct{}
	body    *Body
	err     error
	waiters int32
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*Body
	lru     Body // sentinel: lru.next is the most recent body, lru.prev the tail
	bytes   int64
	cap     int64 // CapacityBytes/Shards: a Put fills the shard to this
	mainCap int64 // cap less the shard's share of the window: a fill that won the contest fills to this
	demand  sketch
	flights map[Key]*flight
}

// New builds a cache under cfg (zero value = defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, videos: make(map[string]*VideoStats),
		windowed: make(map[Key]*Body), windowCap: cfg.CapacityBytes / 16}
	c.window.next, c.window.prev = &c.window, &c.window
	per := cfg.CapacityBytes / int64(cfg.Shards)
	if per <= 0 {
		per = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			entries: make(map[Key]*Body),
			cap:     per,
			mainCap: (cfg.CapacityBytes - c.windowCap) / int64(cfg.Shards),
			flights: make(map[Key]*flight),
		}
		s.lru.next, s.lru.prev = &s.lru, &s.lru
		c.shards = append(c.shards, s)
	}
	return c
}

// shardFor maps a key to its shard by FNV-1a over the key fields, and
// to its sketch hash, the high half of that hash remixed.
func (c *Cache) shardFor(k Key) (*shard, uint32) {
	h := stats.FNVString(stats.FNVOffset, k.Video)
	h = stats.FNVMix(stats.FNVMix(h, uint64(k.Level)), uint64(k.Chunk))
	return c.shards[h%uint64(len(c.shards))], uint32(h * 0x9E3779B97F4A7C15 >> 32)
}

func unlink(b *Body) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

// linkAfter puts b in a list after at.
func linkAfter(at, b *Body) {
	b.prev, b.next = at, at.next
	b.next.prev, at.next = b, b
}

// lookupLocked returns k's resident body with a reference for the
// caller, or nil. A body in the main store moves to the front of its
// LRU list; one in the admission window keeps its place, unless demand
// says the caller counted a demand for k, which may promote it. The
// promotion's evictions go to ev.
func (c *Cache) lookupLocked(s *shard, k Key, demand bool, ev *evictions) *Body {
	if b, ok := s.entries[k]; ok {
		if s.lru.next != b {
			unlink(b)
			linkAfter(&s.lru, b)
		}
		b.retain(1)
		return b
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b, ok := c.windowed[k]
	if !ok {
		return nil
	}
	b.retain(1)
	if demand && c.winsLocked(s, b, b.size) {
		// The store's reference moves with the body; the bytes stay resident.
		c.unwindowLocked(b)
		c.resident -= b.size
		c.insertLocked(s, b, s.mainCap, ev)
	}
	return b
}

// Get returns the full cached body for k, or ok=false on a miss. A hit
// refreshes the key's LRU position. A caller's body comes back as it was
// stored; a filled one is copied out, its pages being recycled. Get alone
// counts no demand — Fetch is the demand path; Get serves probes.
func (c *Cache) Get(k Key) ([]byte, bool) {
	s, _ := c.shardFor(k)
	s.mu.Lock()
	b := c.lookupLocked(s, k, false, nil)
	s.mu.Unlock()
	if b == nil {
		return nil, false
	}
	out := b.bytes(0, b.size)
	b.Release()
	return out, true
}

// GetRange returns body[from:to+1] of the cached chunk, or ok=false when
// the key is absent or the range exceeds the stored body. A caller's
// body is sliced; a filled one is copied out.
func (c *Cache) GetRange(k Key, from, to int64) ([]byte, bool) {
	s, _ := c.shardFor(k)
	s.mu.Lock()
	b := c.lookupLocked(s, k, false, nil)
	s.mu.Unlock()
	if b == nil {
		return nil, false
	}
	var out []byte
	ok := from >= 0 && to >= from && to < b.size
	if ok {
		out = b.bytes(from, to+1)
	}
	b.Release()
	return out, ok
}

// bytes returns body[from:to] as memory the caller may keep.
func (b *Body) bytes(from, to int64) []byte {
	if b.pages == nil {
		return b.flat[from:to]
	}
	return b.appendRange(make([]byte, 0, to-from), from, to)
}

// Put inserts k's full body into the main store, subject to the level
// cap and the doorkeeper (admissibleLocked) but not to the demand
// contest, evicting from the tail of the shard's LRU list until the body
// fits. It reports whether the body was admitted. The store keeps body
// itself.
func (c *Cache) Put(k Key, body []byte) bool {
	s, h := c.shardFor(k)
	b := flatBody(k, body)
	b.hash = h
	var ev evictions
	s.mu.Lock()
	c.wmu.Lock()
	ok, old := c.admitLocked(s, b, false, &ev)
	c.wmu.Unlock()
	s.mu.Unlock()
	c.settle(old, ev.head)
	return ok
}

// admitLocked stores b under its key in the main store, with a
// reference for the store, if the shard's budget and admissibleLocked
// let it; with contest, only if it also wins winsLocked's
// contest, and then within mainCap. It unlinks the body it replaces,
// from the store or the window, and evicts until b fits; the caller
// drops the store's references outside the locks (settle). Caller holds
// s.mu and c.wmu.
func (c *Cache) admitLocked(s *shard, b *Body, contest bool, ev *evictions) (ok bool, old *Body) {
	if b.size > s.cap || !c.admissibleLocked(s, b) {
		return false, nil
	}
	if old = s.entries[b.key]; old != nil {
		unlink(old)
		delete(s.entries, b.key)
		s.bytes -= old.size
	} else if old = c.windowed[b.key]; old != nil {
		c.unwindowLocked(old)
	} else if contest && !c.winsLocked(s, b, 0) {
		return false, nil
	}
	if old != nil {
		c.resident -= old.size
	}
	b.retain(1)
	if contest {
		c.insertLocked(s, b, s.mainCap, ev)
	} else {
		c.insertLocked(s, b, s.cap, ev)
	}
	return true, old
}

// admissibleLocked reports whether b may enter the main store at all:
// its level is under the cap, and the doorkeeper has counted MinSeen
// demands for its key.
func (c *Cache) admissibleLocked(s *shard, b *Body) bool {
	return (c.cfg.Levels <= 0 || b.key.Level < c.cfg.Levels) &&
		(c.cfg.MinSeen <= 1 || s.demand.estimate(b.hash) >= c.cfg.MinSeen)
}

// winsLocked is the TinyLFU contest: b may enter s's main store if
// admissibleLocked lets it and its demand beats that of every body it
// would evict from the LRU tail to fit mainCap and the capacity, counting
// freeing bytes that b gives back elsewhere (the window's).
func (c *Cache) winsLocked(s *shard, b *Body, freeing int64) bool {
	if !c.admissibleLocked(s, b) {
		return false
	}
	f := s.demand.estimate(b.hash)
	need := max(s.bytes+b.size-s.mainCap, c.resident-freeing+b.size-c.cfg.CapacityBytes)
	for v := s.lru.prev; need > 0 && v != &s.lru; v = v.prev {
		if s.demand.estimate(v.hash) >= f {
			return false
		}
		need -= v.size
	}
	return true
}

// insertLocked puts b at the front of s's LRU list, evicting the list's
// tail until the shard's bytes fit cap, then whatever reserveLocked
// takes.
func (c *Cache) insertLocked(s *shard, b *Body, cap int64, ev *evictions) {
	for s.bytes+b.size > cap && c.evictTailLocked(s, ev) {
	}
	c.reserveLocked(s, b.size, ev) // b.size ≤ s.cap: the other shards leave room
	s.entries[b.key] = b
	linkAfter(&s.lru, b)
	s.bytes += b.size
}

// parkLocked puts a fill the main store refused at the back of the
// admission window, with a reference for the store, dropping the
// window's oldest bodies until it fits there. The capacity has its room
// unless Puts filled the main store past mainCap. A body that cannot
// fit is not stored.
func (c *Cache) parkLocked(s *shard, b *Body, ev *evictions) {
	for c.windowBytes+b.size > c.windowCap && c.dropOldestLocked(ev) {
	}
	if !c.reserveLocked(s, b.size, ev) {
		return
	}
	b.retain(1)
	c.windowed[b.key] = b
	linkAfter(c.window.prev, b)
	c.windowBytes += b.size
}

// reserveLocked counts n more resident bytes once they fit the capacity,
// evicting s's LRU tail first, then the window's oldest bodies. It
// reports false, having counted nothing, when there is nothing left to
// evict.
func (c *Cache) reserveLocked(s *shard, n int64, ev *evictions) bool {
	for c.resident+n > c.cfg.CapacityBytes {
		if !c.evictTailLocked(s, ev) && !c.dropOldestLocked(ev) {
			return false
		}
	}
	c.resident += n
	return true
}

// evictTailLocked evicts s's LRU tail, if it has one.
func (c *Cache) evictTailLocked(s *shard, ev *evictions) bool {
	b := s.lru.prev
	if b == &s.lru {
		return false
	}
	unlink(b)
	delete(s.entries, b.key)
	s.bytes -= b.size
	c.resident -= b.size
	ev.add(b)
	return true
}

// dropOldestLocked evicts the admission window's oldest body, if any.
func (c *Cache) dropOldestLocked(ev *evictions) bool {
	b := c.window.next
	if b == &c.window {
		return false
	}
	c.unwindowLocked(b)
	c.resident -= b.size
	ev.add(b)
	return true
}

// unwindowLocked takes b out of the window; its bytes stay in resident.
func (c *Cache) unwindowLocked(b *Body) {
	unlink(b)
	delete(c.windowed, b.key)
	c.windowBytes -= b.size
}

// evictions chains the bodies one store operation evicts through next,
// in eviction order, each still holding the store's reference.
type evictions struct{ head, tail *Body }

func (e *evictions) add(b *Body) {
	if e.tail == nil {
		e.head = b
	} else {
		e.tail.next = b
	}
	e.tail = b
}

// settle drops the store's references to a replaced body and to an
// eviction chain, counting and journaling the evictions.
func (c *Cache) settle(old, evicted *Body) {
	if old != nil {
		old.Release()
	}
	for b := evicted; b != nil; {
		next := b.next
		b.next = nil
		c.evictions.Add(1)
		c.emitEvict(b.key)
		b.Release()
		b = next
	}
}

// Fetch returns k's body, counting one demand for it and collapsing
// concurrent misses: a hit returns immediately; on a miss, exactly one
// caller (the leader) runs fill and every concurrent caller for the
// same key waits for its outcome. A failed fill caches nothing and
// propagates the leader's error to all waiters; the next Fetch after the
// flight clears retries from scratch. hit reports whether the body came
// from the store without waiting on an origin fill (collapsed waiters
// report hit=false — they paid the fill latency too). The store keeps
// the slice fill returns; a body FetchPaged filled comes back copied
// out.
func (c *Cache) Fetch(k Key, fill func() ([]byte, error)) (body []byte, hit bool, err error) {
	b, hit, err := c.fetch(k, true, func() (*Body, error) {
		body, err := fill()
		if err != nil {
			return nil, err
		}
		return flatBody(k, body), nil
	})
	if err != nil {
		return nil, hit, err
	}
	defer b.Release()
	return b.bytes(0, b.size), hit, nil
}

// FetchPaged is Fetch for a body the cache owns: on a miss the leader's
// fill writes the chunk into size bytes of pages the cache hands it
// (through Block) and returns; a fill that fails gives the pages back.
// demand says whether the call counts as a demand for k: a caller that
// serves a chunk as several range requests counts one of them. The body
// comes back with one reference held for the caller, who Releases it
// once nothing reads it any more. Its length is the leader's size, or
// that of whatever body is resident under k.
func (c *Cache) FetchPaged(k Key, size int64, demand bool, fill func(*Body) error) (body *Body, hit bool, err error) {
	return c.fetch(k, demand, func() (*Body, error) {
		b := newPagedBody(k, size)
		if err := fill(b); err != nil {
			b.Release()
			return nil, err
		}
		return b, nil
	})
}

// fetch is the demand path of Fetch and FetchPaged: a hit, a collapsed
// wait on k's flight, or a fill led, placed and published in one pass
// of the shard lock. fill returns its body with the leader's reference;
// the body comes back with one for the caller.
func (c *Cache) fetch(k Key, demand bool, fill func() (*Body, error)) (*Body, bool, error) {
	s, h := c.shardFor(k)
	var ev evictions
	s.mu.Lock()
	if demand {
		s.demand.add(h, len(s.entries))
	}
	if b := c.lookupLocked(s, k, demand, &ev); b != nil {
		s.mu.Unlock()
		c.settle(nil, ev.head)
		c.hits.Add(1)
		c.noteVideo(k.Video, true)
		c.emitHit(k)
		return b, true, nil
	}
	if fl, ok := s.flights[k]; ok {
		fl.waiters++
		s.mu.Unlock()
		c.collapsed.Add(1)
		c.misses.Add(1)
		c.noteVideo(k.Video, false)
		c.emitCollapse(k)
		<-fl.done
		return fl.body, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[k] = fl
	s.mu.Unlock()

	c.misses.Add(1)
	c.noteVideo(k.Video, false)
	c.emitMiss(k)

	c.fills.Add(1)
	b, err := fill()
	var old *Body
	if err == nil {
		b.hash = h
	}
	s.mu.Lock()
	if err == nil {
		old = c.placeLocked(s, b, &ev)
		b.retain(fl.waiters)
	}
	fl.body, fl.err = b, err
	delete(s.flights, k)
	s.mu.Unlock()
	c.settle(old, ev.head)
	close(fl.done)
	return b, false, err
}

// placeLocked stores a completed fill: in the main store if
// admissibleLocked and the contest let it, else in the admission window.
// A body too large for the window is admitted as Put admits.
func (c *Cache) placeLocked(s *shard, b *Body, ev *evictions) (old *Body) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	contest := b.size <= c.windowCap
	ok, old := c.admitLocked(s, b, contest, ev)
	if !ok && contest && b.size <= s.cap {
		c.parkLocked(s, b, ev)
	}
	return old
}

// noteVideo tallies one request outcome against k's video.
func (c *Cache) noteVideo(video string, hit bool) {
	c.vmu.Lock()
	vs := c.videos[video]
	if vs == nil {
		vs = &VideoStats{}
		c.videos[video] = vs
	}
	if hit {
		vs.Hits++
	} else {
		vs.Misses++
	}
	c.vmu.Unlock()
}

// Stats snapshots the cache-wide counters.
func (c *Cache) Stats() Stats {
	var entries, bytes int64
	for _, s := range c.shards {
		s.mu.Lock()
		entries += int64(len(s.entries))
		bytes += s.bytes
		s.mu.Unlock()
	}
	c.wmu.Lock()
	windowed, windowBytes := int64(len(c.windowed)), c.windowBytes
	c.wmu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Collapsed:   c.collapsed.Load(),
		Fills:       c.fills.Load(),
		Entries:     entries + windowed,
		Bytes:       bytes + windowBytes,
		Windowed:    windowed,
		WindowBytes: windowBytes,
	}
}

// PerVideo returns the per-video request tallies (copy).
func (c *Cache) PerVideo() map[string]VideoStats {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	out := make(map[string]VideoStats, len(c.videos))
	for v, vs := range c.videos {
		out[v] = *vs
	}
	return out
}

// ---- telemetry (nil-safe, one atomic load per event) ----

// cacheObs bundles the cache's journal sink; counters are exposed as
// scrape-time collectors in Instrument, so the hot path never touches
// the registry.
type cacheObs struct {
	sink obs.Sink
}

// Instrument wires the cache to t: cache_* scrape-time collectors over
// the counters it already keeps, plus cache.hit/miss/evict/collapse
// journal events. Call once, before serving.
func (c *Cache) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	r := t.Registry
	count := func(name, help string, get func(Stats) int64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(get(c.Stats())) })
	}
	count("cache_hits_total", "Chunk requests served from the edge cache.",
		func(s Stats) int64 { return s.Hits })
	count("cache_misses_total", "Chunk requests that needed an origin fill (collapsed waiters included).",
		func(s Stats) int64 { return s.Misses })
	count("cache_evictions_total", "Entries evicted under capacity pressure.",
		func(s Stats) int64 { return s.Evictions })
	count("cache_collapsed_total", "Misses that piggybacked on another request's origin fill (singleflight).",
		func(s Stats) int64 { return s.Collapsed })
	count("cache_fills_total", "Origin fetches performed by singleflight leaders.",
		func(s Stats) int64 { return s.Fills })
	r.GaugeFunc("cache_entries", "Chunks currently resident.",
		nil, func() float64 { return float64(c.Stats().Entries) })
	r.GaugeFunc("cache_bytes", "Payload bytes currently resident.",
		nil, func() float64 { return float64(c.Stats().Bytes) })
	c.cobs.Store(&cacheObs{sink: t})
}

func (c *Cache) emit(typ string, k Key) {
	co := c.cobs.Load()
	if co == nil || co.sink == nil {
		return
	}
	co.sink.Emit(obs.NewEvent(typ).WithChunk(k.Chunk, k.Level).
		WithStr("video", k.Video))
}

func (c *Cache) emitHit(k Key)      { c.emit("cache.hit", k) }
func (c *Cache) emitMiss(k Key)     { c.emit("cache.miss", k) }
func (c *Cache) emitEvict(k Key)    { c.emit("cache.evict", k) }
func (c *Cache) emitCollapse(k Key) { c.emit("cache.collapse", k) }
