package netmp

// The congestion board: joint-flow awareness for sessions sharing a
// bottleneck. Sessions that stream behind the same shaped link (a swarm
// group, a household NAT, one cell) each rediscover a capacity drop
// alone — every predictor must decay through its own stale samples
// before the scheduler reacts. The board short-circuits that: sessions
// publish their per-path service-rate observations into a sharded,
// lock-cheap registry keyed by the bottleneck they share; new sessions
// seed their Holt-Winters predictor from the board instead of starting
// blind; and a capacity drop observed by one session bumps the key's
// drop epoch, pre-arming the doomed-chunk abort thresholds of every
// neighbor (the doom test halves its MinProgress gate and clamps its rate
// estimate by the board's post-drop figure).
//
// The design follows the joint-flow/cross-layer line of work (QAware;
// "More Than The Sum Of Its Parts"): expose transport-layer state across
// co-bottlenecked flows instead of letting each one learn the hard way.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/obs"
	"mpdash/internal/stats"
)

// boardShards is the shard count; a power of two so the key hash maps
// with a mask. 16 shards keep 1000 publishing sessions off one mutex.
const boardShards = 16

// boardDropFraction is the relative rate collapse that registers as a
// capacity drop: a published sample below this fraction of the key's
// running estimate bumps the drop epoch.
const boardDropFraction = 0.5

// boardEWMAAlpha smooths the per-(key,path) rate estimate. Responsive
// enough that a genuine drop moves the estimate within a few samples,
// damped enough that one slow segment does not.
const boardEWMAAlpha = 0.3

// boardPublishInterval throttles per-fetcher publishes so the per-
// segment hot path pays at most one shard-mutex acquisition per interval.
const boardPublishInterval = 25 * time.Millisecond

// CongestionBoard is a sharded registry of per-bottleneck path-rate
// estimates and capacity-drop signals, shared by the sessions of one
// process. Safe for concurrent use by any number of fetchers; the zero
// value is NOT usable — construct with NewCongestionBoard.
type CongestionBoard struct {
	clk    Clock
	shards [boardShards]boardShard

	// The cumulative tallies are striped across cache lines
	// (obs.ShardedCounter) keyed by the bottleneck-key hash: at swarm
	// scale every session's publish throttle fires on the same
	// interval, and a single shared atomic becomes a coherence-miss
	// hotspot long before the shard mutexes do.
	publishes obs.ShardedCounter
	seeds     obs.ShardedCounter
	drops     obs.ShardedCounter
}

type boardShard struct {
	mu      sync.Mutex
	entries map[string]*boardEntry
}

// boardEntry is one bottleneck key's shared state. rateBits holds the
// EWMA rate estimate as float64 bits so readers on the doom-test tick
// pay one atomic load, not a mutex.
type boardEntry struct {
	rateBits  atomic.Uint64 // float64 bits, bytes/s (0 = no estimate yet)
	samples   atomic.Int64
	dropEpoch atomic.Int64

	mu       sync.Mutex // serializes the EWMA fold + drop detection
	lastDrop time.Time
}

// NewCongestionBoard returns an empty board.
func NewCongestionBoard() *CongestionBoard {
	return NewCongestionBoardClocked(nil)
}

// NewCongestionBoardClocked is the constructor with an injectable clock
// (nil = time.Now) for deterministic tests.
func NewCongestionBoardClocked(clk Clock) *CongestionBoard {
	b := &CongestionBoard{clk: clk}
	for i := range b.shards {
		b.shards[i].entries = make(map[string]*boardEntry)
	}
	return b
}

// boardHash is the FNV-1a hash shared by shard selection and counter
// striping, so one key always lands on one shard and one stripe.
func boardHash(key string) uint64 {
	return stats.FNVString(stats.FNVOffset, key)
}

// shardFor hashes key to its shard (FNV-1a, masked).
func (b *CongestionBoard) shardFor(key string) *boardShard {
	return &b.shards[boardHash(key)&(boardShards-1)]
}

// entry returns the key's entry, creating it on first use.
func (b *CongestionBoard) entry(key string) *boardEntry {
	s := b.shardFor(key)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = &boardEntry{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	return e
}

// peek returns the key's entry without creating it.
func (b *CongestionBoard) peek(key string) *boardEntry {
	s := b.shardFor(key)
	s.mu.Lock()
	e := s.entries[key]
	s.mu.Unlock()
	return e
}

// Publish folds one observed service-rate sample (bytes/s) into the
// key's shared estimate. A sample collapsing below half the running
// estimate registers a capacity drop: the key's drop epoch is bumped,
// pre-arming every neighbor session's abort thresholds. It reports
// whether this publish registered a drop.
func (b *CongestionBoard) Publish(key string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := boardHash(key)
	b.publishes.Inc(h)
	e := b.entry(key)
	e.mu.Lock()
	prev := bitsToRate(e.rateBits.Load())
	next := rate
	dropped := false
	if e.samples.Load() > 0 && prev > 0 {
		next = boardEWMAAlpha*rate + (1-boardEWMAAlpha)*prev
		if rate < boardDropFraction*prev {
			dropped = true
			e.lastDrop = b.clk.now()
			e.dropEpoch.Add(1)
			// Snap the estimate down to the observed post-drop rate:
			// the EWMA's memory of the pre-drop capacity is exactly the
			// staleness the board exists to kill.
			next = rate
		}
	}
	e.rateBits.Store(rateToBits(next))
	e.samples.Add(1)
	e.mu.Unlock()
	if dropped {
		b.drops.Inc(h)
	}
	return dropped
}

// Rate returns the key's shared rate estimate in bytes/s, and whether
// any session has published one.
func (b *CongestionBoard) Rate(key string) (float64, bool) {
	e := b.peek(key)
	if e == nil || e.samples.Load() == 0 {
		return 0, false
	}
	r := bitsToRate(e.rateBits.Load())
	return r, r > 0
}

// Seed reads the key's estimate for predictor seeding, counting the
// read so board effectiveness is observable. ok is false when no
// neighbor has published yet.
func (b *CongestionBoard) Seed(key string) (rate float64, ok bool) {
	rate, ok = b.Rate(key)
	if ok {
		b.seeds.Inc(boardHash(key))
	}
	return rate, ok
}

// DropEpoch returns the key's capacity-drop epoch: it starts at zero and
// increments each time a published sample registers a drop. Sessions
// snapshot it at chunk start; an increase mid-chunk means a neighbor hit
// the wall first.
func (b *CongestionBoard) DropEpoch(key string) int64 {
	e := b.peek(key)
	if e == nil {
		return 0
	}
	return e.dropEpoch.Load()
}

// BoardStats snapshots the board's cumulative counters.
type BoardStats struct {
	// Publishes counts rate samples folded in; Seeds counts predictor
	// seeds served; Drops counts capacity-drop signals registered.
	Publishes, Seeds, Drops int64
	// Keys counts the bottleneck keys tracked.
	Keys int
}

// Stats returns the board's counters.
func (b *CongestionBoard) Stats() BoardStats {
	st := BoardStats{
		Publishes: b.publishes.Value(),
		Seeds:     b.seeds.Value(),
		Drops:     b.drops.Value(),
	}
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		st.Keys += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// Instrument exposes the board's counters as scrape-time collectors on
// t's registry. Call once per board, not per session.
func (b *CongestionBoard) Instrument(t *obs.Telemetry) {
	if t == nil {
		return
	}
	r := t.Registry
	r.CounterFunc("netmp_board_publishes_total",
		"Rate samples folded into the congestion board.",
		nil, func() float64 { return float64(b.publishes.Value()) })
	r.CounterFunc("netmp_board_seeds_total",
		"Predictor seeds served from the congestion board.",
		nil, func() float64 { return float64(b.seeds.Value()) })
	r.CounterFunc("netmp_board_drops_total",
		"Capacity-drop signals registered on the congestion board.",
		nil, func() float64 { return float64(b.drops.Value()) })
	r.GaugeFunc("netmp_board_keys",
		"Bottleneck keys tracked by the congestion board.",
		nil, func() float64 { return float64(b.Stats().Keys) })
}

func rateToBits(r float64) uint64    { return math.Float64bits(r) }
func bitsToRate(bits uint64) float64 { return math.Float64frombits(bits) }

// ---- fetcher integration ----

// boardLink is the fetcher's attachment to a congestion board.
type boardLink struct {
	board *CongestionBoard
	key   string
	// baseEpoch is the drop epoch at join time; any later value means a
	// neighbor observed a capacity drop during this session.
	baseEpoch atomic.Int64
	// lastPublish throttles the per-segment publish hot path
	// (unix nanos of the last accepted publish).
	lastPublish atomic.Int64
}

// JoinBoard attaches the fetcher to a congestion board under the given
// bottleneck key: the hedge/doom predictor is seeded from the board's
// shared estimate when one exists (journalled as board.seed), every
// completed segment's service rate is published back (throttled), and a
// neighbor-observed capacity drop pre-arms this fetcher's abort
// thresholds. Call after Instrument and before fetching; a nil board is
// a no-op.
func (f *Fetcher) JoinBoard(board *CongestionBoard, key string) {
	if board == nil {
		return
	}
	link := &boardLink{board: board, key: key}
	link.baseEpoch.Store(board.DropEpoch(key))
	f.board = link
	if rate, ok := board.Seed(key); ok {
		f.hedge.seed(rate)
		if fo := f.obsHandles(); fo != nil && fo.sink != nil {
			fo.sink.Emit(obs.NewEvent("board.seed").
				WithStr("key", key).
				WithNum("rate_bps", rate*8))
		}
	}
}

// observeSegRate feeds one completed segment's measured service rate
// into the hedge/doom predictor and (throttled) the congestion board.
func (f *Fetcher) observeSegRate(bytes int64, d time.Duration) {
	f.hedge.observe(bytes, d)
	if bytes > 0 && d > 0 {
		f.publishRate(float64(bytes) / d.Seconds())
	}
}

// publishRate folds one completed segment's measured service rate into
// the board (throttled to one publish per interval). A publish that
// registers a capacity drop is journalled.
func (f *Fetcher) publishRate(rate float64) {
	link := f.board
	if link == nil || rate <= 0 {
		return
	}
	now := f.clk.now().UnixNano()
	last := link.lastPublish.Load()
	if now-last < int64(boardPublishInterval) || !link.lastPublish.CompareAndSwap(last, now) {
		return
	}
	if link.board.Publish(link.key, rate) {
		if fo := f.obsHandles(); fo != nil && fo.sink != nil {
			fo.sink.Emit(obs.NewEvent("board.drop").
				WithStr("key", link.key).
				WithNum("rate_bps", rate*8).
				WithNum("epoch", float64(link.board.DropEpoch(link.key))))
		}
	}
}

// boardPreArmed reports whether a neighbor session has observed a
// capacity drop since this fetcher joined the board (or since the last
// pre-arm was consumed by a completed chunk).
func (f *Fetcher) boardPreArmed() bool {
	link := f.board
	if link == nil {
		return false
	}
	return link.board.DropEpoch(link.key) > link.baseEpoch.Load()
}

// boardRate reads the board's shared per-path rate estimate.
func (f *Fetcher) boardRate() (float64, bool) {
	link := f.board
	if link == nil {
		return 0, false
	}
	return link.board.Rate(link.key)
}

// ackBoardEpoch re-bases the pre-arm trigger after a chunk completes on
// time: the local predictor has caught up with whatever the neighbors
// saw, so the stale signal should not keep tightening future chunks.
func (f *Fetcher) ackBoardEpoch() {
	link := f.board
	if link == nil {
		return
	}
	link.baseEpoch.Store(link.board.DropEpoch(link.key))
}
