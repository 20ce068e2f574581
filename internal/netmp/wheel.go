package netmp

import (
	"sync"
	"sync/atomic"
	"time"
)

// TimerWheel is a hashed timer wheel: a fixed ring of slots, each
// holding the timers whose expiry lands on that coarse tick. It holds
// every timer of a tick or longer — session kill timers, hedge-arm
// triggers, doom tests and standing-by re-evaluations all ride the
// process-wide SharedWheel — so arming a timer is an append under a slot
// mutex, cancelling it is a slot-local removal, and one driver goroutine
// advances the whole population instead of 5k sessions allocating and
// tearing down runtime timers on every chunk. The shaper's sub-tick
// waits (1.6 ms a 16 KiB block at 80 Mbps) sleep on one runtime timer
// per connection, reused (sleepOn).
//
// Expiry decisions are driven by the injectable Clock: the driver
// ticks on wall time but every "is this due" comparison reads
// clk.now(). Under a frozen clock nothing ever fires (armed timers
// just sit in their slots), which is exactly the contract the perf
// harness needs — frozen-clock runs measure the hot path without timer
// interference. Tests advance the wheel deterministically with
// advanceTo.
//
// Firing granularity is the tick (default 5ms): a timer fires on the
// first tick at or after its deadline, so deadlines within one tick of
// each other may fire on the same advance — in deadline order across
// ticks, unordered within one. That is the documented coarseness
// trade-off; hedge delays and session timeouts are tens of
// milliseconds and up.
type TimerWheel struct {
	clk   Clock
	tick  time.Duration
	epoch time.Time
	slots []wheelSlot

	mu     sync.Mutex // guards cursor during advance
	cursor int64      // last fully processed tick index

	stopOnce sync.Once
	stopCh   chan struct{}
}

// wheelSlots is the default slot count — a power of two so tick
// indices map with a mask. 512 slots × 5ms tick = a 2.56s wraparound
// horizon; timers beyond it simply ride the ring for extra laps.
const (
	wheelSlots       = 512
	defaultWheelTick = 5 * time.Millisecond
)

type wheelSlot struct {
	mu     sync.Mutex
	timers []*WheelTimer
}

// WheelTimer is one armed timer. Stop cancels it; a timer fires at
// most once per arming.
type WheelTimer struct {
	w     *TimerWheel
	when  time.Time
	fn    func()
	slot  int32
	state atomic.Int32 // 0 armed, 1 fired, 2 stopped
	// inline timers run fn on the driver goroutine (must not block);
	// others get their own goroutine, matching time.AfterFunc.
	inline bool
}

// NewTimerWheel returns a running wheel driven by clk (nil = wall
// clock) at the given tick (0 = 5ms). Close it when done to stop the
// driver goroutine.
func NewTimerWheel(clk Clock, tick time.Duration) *TimerWheel {
	if tick <= 0 {
		tick = defaultWheelTick
	}
	w := &TimerWheel{
		clk:    clk,
		tick:   tick,
		epoch:  clk.now(),
		slots:  make([]wheelSlot, wheelSlots),
		stopCh: make(chan struct{}),
	}
	go w.drive()
	return w
}

var (
	sharedWheelOnce sync.Once
	sharedWheel     *TimerWheel
)

// SharedWheel returns the process-wide wall-clock wheel, started on first
// use and never closed: every Fetcher and the swarm's kill timers share
// its one driver goroutine.
func SharedWheel() *TimerWheel {
	sharedWheelOnce.Do(func() { sharedWheel = NewTimerWheel(nil, 0) })
	return sharedWheel
}

// Close stops the driver goroutine. Armed timers never fire after
// Close; their goroutines are already accounted for (none is running).
func (w *TimerWheel) Close() {
	w.stopOnce.Do(func() { close(w.stopCh) })
}

// drive ticks the wheel on wall time, evaluating expiry against the
// injected clock. The real ticker is only the heartbeat — a frozen
// injected clock keeps cursor at zero and nothing fires.
func (w *TimerWheel) drive() {
	tk := time.NewTicker(w.tick)
	defer tk.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-tk.C:
			w.advanceTo(w.clk.now())
		}
	}
}

// AfterFunc arms fn to run once d from now, in its own goroutine
// (time.AfterFunc semantics).
func (w *TimerWheel) AfterFunc(d time.Duration, fn func()) *WheelTimer {
	return w.afterFunc(d, fn, false)
}

// After arms a channel that closes once d from now — the select-able
// form fetchers use for hedge triggers. The close runs inline on the
// driver (closing a channel never blocks). Cancel with Stop.
func (w *TimerWheel) After(d time.Duration) (<-chan struct{}, *WheelTimer) {
	ch := make(chan struct{})
	t := w.afterFunc(d, func() { close(ch) }, true)
	return ch, t
}

func (w *TimerWheel) afterFunc(d time.Duration, fn func(), inline bool) *WheelTimer {
	t := &WheelTimer{w: w, fn: fn, inline: inline}
	t.reset(d)
	return t
}

// idleTimer returns an unarmed timer that runs fn inline on the driver
// (which must not block) each time reset arms it: one allocation for a
// timer its owner re-arms for the rest of its life.
func (w *TimerWheel) idleTimer(fn func()) *WheelTimer {
	t := &WheelTimer{w: w, fn: fn, inline: true}
	t.state.Store(2)
	return t
}

// reset arms t to fire d from now. t must be idle: new, stopped by a Stop
// that returned true, or fired with its callback returned — or running
// it, so a callback may re-arm its own timer. Once fired or stopped, a
// timer is in no slot and no advance holds it (both leave the slot under
// its lock), so nothing can fire the re-armed timer early.
func (t *WheelTimer) reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.when = t.w.clk.now().Add(d)
	t.state.Store(0)
	t.w.insert(t)
}

// insert places t on the slot of the first tick at or after its expiry.
// The index rounds up because advanceTo examines a slot when its tick
// starts: a deadline floored into a tick it falls in the middle of would
// still be in the future then, and wait a whole lap for the next look. A
// deadline on or before the cursor's tick lands one tick ahead so the
// next advance catches it. The cursor lock is held across the append so
// an advance cannot pass the chosen slot in between.
func (w *TimerWheel) insert(t *WheelTimer) {
	idx := int64((t.when.Sub(w.epoch) + w.tick - 1) / w.tick)
	w.mu.Lock()
	defer w.mu.Unlock()
	if idx <= w.cursor {
		idx = w.cursor + 1
	}
	slot := &w.slots[idx&(wheelSlots-1)]
	t.slot = int32(idx & (wheelSlots - 1))
	slot.mu.Lock()
	slot.timers = append(slot.timers, t)
	slot.mu.Unlock()
}

// Stop cancels the timer, reporting whether it won the race against
// firing (false = the callback ran, is running or is about to). Nil-safe.
func (t *WheelTimer) Stop() bool {
	if t == nil {
		return false
	}
	if !t.state.CompareAndSwap(0, 2) {
		return false
	}
	// Best-effort eager removal so cancelled timers don't pile up in
	// the slot until its tick comes around.
	slot := &t.w.slots[t.slot]
	slot.mu.Lock()
	for i, st := range slot.timers {
		if st == t {
			last := len(slot.timers) - 1
			slot.timers[i] = slot.timers[last]
			slot.timers[last] = nil
			slot.timers = slot.timers[:last]
			break
		}
	}
	slot.mu.Unlock()
	return true
}

// advanceTo processes every tick from the cursor up to now, firing due
// timers. The driver calls it each heartbeat; deterministic tests call
// it directly with a manual clock's reading.
func (w *TimerWheel) advanceTo(now time.Time) {
	target := int64(now.Sub(w.epoch) / w.tick)
	w.mu.Lock()
	cur := w.cursor
	if target <= cur {
		w.mu.Unlock()
		return
	}
	// A stall longer than one wraparound still only needs one pass
	// over the ring: clamp the walk, then jump the cursor to target.
	first := cur + 1
	if target-first >= wheelSlots {
		first = target - wheelSlots + 1
	}
	w.cursor = target
	w.mu.Unlock()

	// The fired timers of a slot gather on the stack; only a slot with
	// more than len(buf) due at once grows them onto the heap.
	var buf [16]*WheelTimer
	due := buf[:0]
	for c := first; c <= target; c++ {
		slot := &w.slots[c&(wheelSlots-1)]
		slot.mu.Lock()
		kept := slot.timers[:0]
		for _, t := range slot.timers {
			switch {
			case t.when.After(now):
				kept = append(kept, t)
			case t.state.CompareAndSwap(0, 1): // the fire wins the race against Stop here, under the slot lock
				due = append(due, t)
			}
		}
		for i := len(kept); i < len(slot.timers); i++ {
			slot.timers[i] = nil
		}
		slot.timers = kept
		slot.mu.Unlock()
		// Fire outside the slot lock: an inline callback may re-arm
		// into this very slot.
		for _, t := range due {
			if t.inline {
				t.fn()
			} else {
				go t.fn()
			}
		}
		due = due[:0]
	}
}
