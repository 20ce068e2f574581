// Package cache implements the edge-tier chunk cache: a sharded LRU
// store of full chunk bodies with TinyLFU-flavoured admission (a
// per-rendition level cap plus an optional seen-count doorkeeper) and
// singleflight request collapsing, so N concurrent misses for the same
// (video, chunk, rendition) key trigger exactly one origin fetch while
// every waiter still gets the body — the exactly-once ledger contract
// extended across sessions.
//
// Entries hold whole chunks; byte-range requests are served by slicing
// (GetRange), which is what makes the collapsing effective: an MP-DASH
// client splits one chunk into disjoint range requests across two
// paths, and every one of them folds into a single whole-chunk fill.
package cache

import (
	"container/list"
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
	// MaxLevel is the highest rendition level index admitted to the
	// cache (the per-rendition admission policy: top-bitrate long-tail
	// renditions can be barred from displacing popular low ones).
	// Negative = admit every level. Default -1.
	MaxLevel int
	// MinSeen is the doorkeeper threshold: a key is admitted to the
	// store only once it has been requested MinSeen times (misses
	// included). 0 or 1 admits on first miss. Default 1.
	MinSeen int
}

func (c Config) withDefaults() Config {
	if c.CapacityBytes <= 0 {
		c.CapacityBytes = 64 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = -1
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
	Fills   int64
	Entries int64
	Bytes   int64
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

	// cobs is the published telemetry handle (telemetry.go); nil = off.
	cobs atomic.Pointer[cacheObs]
}

type entry struct {
	key  Key
	body []byte
	elem *list.Element
}

// flight is one in-progress singleflight origin fill. Waiters block on
// done; the leader publishes body/err before closing it.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // front = most recent
	bytes   int64
	cap     int64
	seen    map[Key]int // doorkeeper counts for not-yet-admitted keys
	flights map[Key]*flight
}

// New builds a cache under cfg (zero value = defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, videos: make(map[string]*VideoStats)}
	per := cfg.CapacityBytes / int64(cfg.Shards)
	if per <= 0 {
		per = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard{
			entries: make(map[Key]*entry),
			lru:     list.New(),
			cap:     per,
			seen:    make(map[Key]int),
			flights: make(map[Key]*flight),
		})
	}
	return c
}

// shardFor maps a key to its shard by FNV-1a over the key fields.
func (c *Cache) shardFor(k Key) *shard {
	h := stats.FNVString(stats.FNVOffset, k.Video)
	h = stats.FNVMix(stats.FNVMix(h, uint64(k.Level)), uint64(k.Chunk))
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the full cached body for k, or ok=false on a miss. A hit
// refreshes the key's LRU position. Get alone does not feed the
// doorkeeper — Fetch is the demand path; Get serves probes.
func (c *Cache) Get(k Key) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.body, true
}

// GetRange returns body[from:to+1] of the cached chunk, or ok=false when
// the key is absent or the range exceeds the stored body.
func (c *Cache) GetRange(k Key, from, to int64) ([]byte, bool) {
	body, ok := c.Get(k)
	if !ok || from < 0 || to < from || to >= int64(len(body)) {
		return nil, false
	}
	return body[from : to+1], true
}

// Put inserts k's full body, subject to the admission policy, evicting
// from the tail of the shard's LRU list until the body fits. It reports
// whether the body was admitted.
func (c *Cache) Put(k Key, body []byte) bool {
	if !c.admitLevel(k) || int64(len(body)) > c.shardFor(k).cap {
		return false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if !s.admitSeenLocked(k, c.cfg.MinSeen) {
		s.mu.Unlock()
		return false
	}
	if e, ok := s.entries[k]; ok {
		s.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		s.lru.MoveToFront(e.elem)
		evicted := s.evictLocked()
		s.mu.Unlock()
		c.noteEvictions(evicted)
		return true
	}
	e := &entry{key: k, body: body}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	s.bytes += int64(len(body))
	delete(s.seen, k)
	evicted := s.evictLocked()
	s.mu.Unlock()
	c.noteEvictions(evicted)
	return true
}

// admitLevel applies the per-rendition admission cap.
func (c *Cache) admitLevel(k Key) bool {
	return c.cfg.MaxLevel < 0 || k.Level <= c.cfg.MaxLevel
}

// admitSeenLocked applies the doorkeeper: true once the key has been
// demanded at least minSeen times. The seen map is bounded: it resets
// when it outgrows 8× the shard's resident entries (a cold restart of
// the doorkeeper, not of the cache).
func (s *shard) admitSeenLocked(k Key, minSeen int) bool {
	if minSeen <= 1 {
		return true
	}
	if s.seen[k] >= minSeen {
		return true
	}
	if len(s.seen) > 8*(len(s.entries)+64) {
		s.seen = make(map[Key]int)
	}
	return false
}

// noteSeen counts one demand for k toward the doorkeeper.
func (s *shard) noteSeen(k Key) {
	s.mu.Lock()
	if _, resident := s.entries[k]; !resident {
		s.seen[k]++
	}
	s.mu.Unlock()
}

// evictLocked drops LRU-tail entries until the shard fits its budget,
// returning the evicted keys for journaling outside the lock.
func (s *shard) evictLocked() []Key {
	var out []Key
	for s.bytes > s.cap {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.body))
		out = append(out, e.key)
	}
	return out
}

func (c *Cache) noteEvictions(keys []Key) {
	if len(keys) == 0 {
		return
	}
	c.evictions.Add(int64(len(keys)))
	for _, k := range keys {
		c.emitEvict(k)
	}
}

// Fetch returns k's body, collapsing concurrent misses: a hit returns
// immediately; on a miss, exactly one caller (the leader) runs fill and
// every concurrent caller for the same key waits for its outcome. A
// failed fill caches nothing and propagates the leader's error to all
// waiters; the next Fetch after the flight clears retries from scratch.
// hit reports whether the body came from the store without waiting on
// an origin fill (collapsed waiters report hit=false — they paid the
// fill latency too).
func (c *Cache) Fetch(k Key, fill func() ([]byte, error)) (body []byte, hit bool, err error) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		c.hits.Add(1)
		c.noteVideo(k.Video, true)
		c.emitHit(k)
		return e.body, true, nil
	}
	if fl, ok := s.flights[k]; ok {
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
	s.noteSeen(k)

	c.fills.Add(1)
	fl.body, fl.err = fill()
	if fl.err == nil {
		c.Put(k, fl.body)
	}
	s.mu.Lock()
	delete(s.flights, k)
	s.mu.Unlock()
	close(fl.done)
	return fl.body, false, fl.err
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
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Collapsed: c.collapsed.Load(),
		Fills:     c.fills.Load(),
		Entries:   entries,
		Bytes:     bytes,
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
