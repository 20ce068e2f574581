package netmp

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a mutex-guarded settable clock shared by the test and
// the wheel's driver goroutine.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_700_000_000, 0)}
}

func (m *manualClock) clock() Clock {
	return func() time.Time {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.now
	}
}

// advance moves the clock and walks the wheel to it deterministically.
func (m *manualClock) advance(w *TimerWheel, d time.Duration) time.Time {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	m.mu.Unlock()
	w.advanceTo(now)
	return now
}

func TestWheelInsertFireCancel(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	fired := make(chan struct{})
	w.AfterFunc(50*time.Millisecond, func() { close(fired) })
	stopped := w.AfterFunc(50*time.Millisecond, func() { t.Error("stopped timer fired") })

	if !stopped.Stop() {
		t.Fatal("Stop on an armed timer = false, want true")
	}
	if stopped.Stop() {
		t.Fatal("second Stop = true, want false")
	}

	mc.advance(w, 49*time.Millisecond)
	select {
	case <-fired:
		t.Fatal("timer fired before its deadline")
	case <-time.After(10 * time.Millisecond):
	}
	mc.advance(w, 2*time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire after its deadline passed")
	}
	// Stopping after the fire loses the race.
	if stopped.Stop() {
		t.Error("Stop after advance = true")
	}
}

// TestWheelAdvanceAllocs: an advance that fires an armed inline timer
// allocates nothing, so a timer its owner re-arms costs no allocation
// per firing. (The hour tick keeps the driver out; the warm-up gives
// every slot its capacity.)
func TestWheelAdvanceAllocs(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Hour)
	defer w.Close()
	fired := 0
	tm := w.idleTimer(func() { fired++ })
	arm := func() {
		tm.reset(time.Minute)
		mc.advance(w, time.Hour)
	}
	for i := 0; i < wheelSlots; i++ {
		arm()
	}
	if allocs := testing.AllocsPerRun(100, arm); allocs != 0 {
		t.Errorf("arming and firing an inline timer: %v allocs per advance, want 0", allocs)
	}
	if want := wheelSlots + 101; fired != want {
		t.Errorf("fired %d times, want %d", fired, want)
	}
}

// Deadlines separated by more than a tick must fire in deadline order;
// the coarse tick only reorders within one tick.
func TestWheelCoarseTickDeadlineOrdering(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	ch10, _ := w.After(10 * time.Millisecond)
	ch30, _ := w.After(30 * time.Millisecond)
	ch20, _ := w.After(20 * time.Millisecond)

	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	mc.advance(w, 12*time.Millisecond)
	if !closed(ch10) || closed(ch20) || closed(ch30) {
		t.Fatalf("after 12ms: got (%v,%v,%v), want (fired,armed,armed)", closed(ch10), closed(ch20), closed(ch30))
	}
	mc.advance(w, 10*time.Millisecond)
	if !closed(ch20) || closed(ch30) {
		t.Fatalf("after 22ms: 20ms timer fired=%v, 30ms timer fired=%v", closed(ch20), closed(ch30))
	}
	mc.advance(w, 10*time.Millisecond)
	if !closed(ch30) {
		t.Fatal("after 32ms: 30ms timer still armed")
	}
}

// Two deadlines inside the same tick both fire on the advance that
// crosses them, and a single advance spanning many ticks catches
// everything in between.
func TestWheelSameTickAndBigJump(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), 5*time.Millisecond)
	defer w.Close()

	a, _ := w.After(7 * time.Millisecond)
	b, _ := w.After(8 * time.Millisecond)
	c, _ := w.After(400 * time.Millisecond)
	mc.advance(w, 10*time.Millisecond)
	select {
	case <-a:
	default:
		t.Fatal("7ms timer not fired at 10ms")
	}
	select {
	case <-b:
	default:
		t.Fatal("8ms timer not fired at 10ms")
	}
	mc.advance(w, time.Second) // one jump across 200 ticks
	select {
	case <-c:
	default:
		t.Fatal("400ms timer not fired after 1s jump")
	}
}

// A timer beyond the ring's horizon rides extra laps: processing its
// slot early must not fire it.
func TestWheelWraparound(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	// Horizon is wheelSlots ticks = 512ms at a 1ms tick.
	far, _ := w.After(700 * time.Millisecond)
	mc.advance(w, 600*time.Millisecond) // past the slot, before the deadline
	select {
	case <-far:
		t.Fatal("timer fired a lap early")
	default:
	}
	mc.advance(w, 150*time.Millisecond)
	select {
	case <-far:
	default:
		t.Fatal("timer not fired after its deadline on the second lap")
	}
}

func TestWheelFrozenClockNeverFires(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	var fired atomic.Bool
	w.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(30 * time.Millisecond) // real driver ticks; frozen clock
	if fired.Load() {
		t.Fatal("timer fired under a frozen clock")
	}
}

// A timer due in the middle of a tick lands on the slot of the tick that
// ends it: armed 2.5 ticks out it fires on the advance to tick 3 — not a
// full lap (512 ticks) later, as it did while the slot index was floored
// and the slot was examined at its tick's start.
func TestWheelMidTickDeadlineFiresNextTick(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	ch, _ := w.After(2500 * time.Microsecond)
	fired := func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	mc.advance(w, time.Millisecond)
	mc.advance(w, time.Millisecond)
	if fired() {
		t.Fatal("timer fired at tick 2, before its 2.5-tick deadline")
	}
	mc.advance(w, time.Millisecond)
	if !fired() {
		t.Fatal("timer due at 2.5 ticks still armed after the advance to tick 3")
	}
}

// Stop on a nil timer is a no-op, so deferred Stops need no guard.
func TestWheelTimerStopNilSafe(t *testing.T) {
	var tm *WheelTimer
	if tm.Stop() {
		t.Error("Stop on a nil timer = true")
	}
}

// Concurrent arm/stop/advance across goroutines — run under -race in
// CI — with exact fire accounting: every timer either fired once or
// was stopped once, never both.
func TestWheelConcurrentArmStopAdvance(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	const workers = 32
	const perWorker = 50
	var fired, stoppedCnt atomic.Int64
	var wg sync.WaitGroup
	var done sync.WaitGroup
	done.Add(workers * perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration(1+(id+i)%40) * time.Millisecond
				tm := w.AfterFunc(d, func() { fired.Add(1); done.Done() })
				if i%3 == 0 {
					if tm.Stop() {
						stoppedCnt.Add(1)
						done.Done()
					}
				}
			}
		}(g)
	}
	go func() {
		for i := 0; i < 60; i++ {
			mc.advance(w, 2*time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	for i := 0; i < 100; i++ {
		mc.advance(w, 10*time.Millisecond)
	}
	done.Wait()
	if got := fired.Load() + stoppedCnt.Load(); got != workers*perWorker {
		t.Fatalf("fired %d + stopped %d = %d, want %d", fired.Load(), stoppedCnt.Load(), got, workers*perWorker)
	}
}

// arming is one arming of a timer in the property test.
type arming struct {
	when    time.Time
	dueTick int64 // the first tick whose advance must fire it
	wt      *WheelTimer
	ch      <-chan struct{} // After: closed by the fire
	async   bool            // AfterFunc: fires on a goroutine of its own
	fires   atomic.Int32    // AfterFunc and re-armed idle timers
	firedAt atomic.Int64    // manual-clock reading at the fire (AfterFunc)
	stopped atomic.Bool     // a Stop returned true
	// rearmed: the idle timer has been armed again since, so a Stop on wt
	// no longer concerns this arming.
	rearmed bool
}

func (a *arming) fired() int32 {
	if a.ch == nil {
		return a.fires.Load()
	}
	select {
	case <-a.ch:
		return 1
	default:
		return 0
	}
}

// TestWheelPropertyFiresOnceOnTimeNeverLost states the wheel's contract
// as a property of random schedules on a manual clock: timers armed by
// After, AfterFunc and the re-arm of idle timers, at deadlines from now to
// three laps out (on and off the tick grid); advances from a fraction of
// a tick to more than a lap; and Stops racing each advance from other
// goroutines. Every timer fires exactly once, on the first advance whose
// tick reaches its deadline (rounded up to the tick, and never a tick the
// wheel had already passed when it was armed) — so never early and never
// a lap late — unless a Stop that returned true came first: then never.
func TestWheelPropertyFiresOnceOnTimeNeverLost(t *testing.T) {
	const tick = time.Millisecond
	const lap = wheelSlots * tick
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), tick)
	w.Close() // the test is the only driver: it checks after every advance
	rng := rand.New(rand.NewSource(1))
	tickOf := func(d time.Duration, up bool) int64 {
		if up {
			d += tick - 1
		}
		return int64(d / tick)
	}

	var all []*arming
	type idle struct {
		wt  *WheelTimer
		cur *arming
	}
	var idles []*idle
	now := mc.clock()()
	arm := func() {
		d := time.Duration(rng.Int63n(int64(3 * lap)))
		switch rng.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = time.Duration(rng.Intn(3000)) * time.Microsecond
		}
		a := &arming{when: now.Add(d)}
		a.dueTick = max(tickOf(a.when.Sub(w.epoch), true), tickOf(now.Sub(w.epoch), false)+1)
		switch k := rng.Intn(3); {
		case k == 0:
			a.ch, a.wt = w.After(d)
		case k == 1:
			a.async = true
			a.wt = w.AfterFunc(d, func() {
				a.firedAt.Store(mc.clock()().UnixNano())
				a.fires.Add(1)
			})
		default:
			var it *idle
			for _, c := range idles { // re-arm one whose last arming is over
				if c.cur.fires.Load() == 1 || c.cur.stopped.Load() {
					it = c
					break
				}
			}
			if it == nil {
				it = &idle{}
				it.wt = w.idleTimer(func() { it.cur.fires.Add(1) })
				idles = append(idles, it)
			} else {
				it.cur.rearmed = true
			}
			it.cur, a.wt = a, it.wt
			it.wt.reset(d)
		}
		all = append(all, a)
	}
	check := func() {
		t.Helper()
		nowTick := tickOf(now.Sub(w.epoch), false)
		for i, a := range all {
			want := int32(0)
			if nowTick >= a.dueTick && !a.stopped.Load() {
				want = 1
			}
			if a.async && want == 1 {
				for end := time.Now().Add(2 * time.Second); a.fires.Load() == 0 && time.Now().Before(end); {
					time.Sleep(100 * time.Microsecond)
				}
			}
			if got := a.fired(); got != want {
				t.Fatalf("timer %d (due tick %d, stopped %v, async %v) fired %d times at tick %d, want %d",
					i, a.dueTick, a.stopped.Load(), a.async, got, nowTick, want)
			}
			if a.async && a.fires.Load() == 1 && a.firedAt.Load() < a.when.UnixNano() {
				t.Fatalf("timer %d fired at %d, before its deadline %d", i, a.firedAt.Load(), a.when.UnixNano())
			}
		}
	}

	// An owner re-arms one idle timer the way a standing-by secondary does
	// — Stop it, or let a fire already under way land, then reset at once
	// — while the advances run. None of its armings may fire early, twice,
	// or after a Stop that returned true.
	var owned []*arming
	var cur atomic.Pointer[arming]
	ownT := w.idleTimer(func() {
		a := cur.Load()
		a.firedAt.Store(mc.clock()().UnixNano())
		a.fires.Add(1)
	})
	rearm := func(d time.Duration) {
		a := &arming{}
		owned = append(owned, a)
		cur.Store(a)
		ownT.reset(d)
		a.when = ownT.when
	}
	rearm(time.Millisecond)

	for round := 0; round < 400; round++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			arm()
		}
		ds := make([]time.Duration, 4)
		for i := range ds {
			ds[i] = time.Duration(1+rng.Intn(3000)) * time.Microsecond
		}
		step := time.Duration(rng.Intn(3000)) * time.Microsecond
		switch r := rng.Intn(10); {
		case r >= 8:
			step = time.Duration(rng.Int63n(int64(100 * tick)))
		case r == 7:
			step = time.Duration(rng.Int63n(int64(3 * lap / 2)))
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			var victims []*arming
			for i := 0; i < 3; i++ {
				if a := all[rng.Intn(len(all))]; !a.rearmed {
					victims = append(victims, a)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, a := range victims {
					if a.wt.Stop() {
						a.stopped.Store(true)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range ds {
				if a := cur.Load(); ownT.Stop() {
					a.stopped.Store(true)
				} else {
					for a.fires.Load() == 0 {
						runtime.Gosched()
					}
				}
				rearm(d)
			}
		}()
		now = mc.advance(w, step)
		wg.Wait()
		check()
	}
	for i := 0; i < 8; i++ { // every survivor is due within four laps
		now = mc.advance(w, lap/2)
	}
	check()
	for i, a := range owned {
		if fires, stopped := a.fires.Load(), a.stopped.Load(); fires > 1 || (fires == 1) == stopped {
			t.Fatalf("owned arming %d (stopped %v) fired %d times", i, stopped, fires)
		}
		if a.fires.Load() == 1 && a.firedAt.Load() < a.when.UnixNano() {
			t.Fatalf("owned arming %d fired %v before its deadline", i, time.Duration(a.when.UnixNano()-a.firedAt.Load()))
		}
	}
}
