package netmp

import (
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

func TestWheelTicker(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), time.Millisecond)
	defer w.Close()

	tk := w.Ticker(20 * time.Millisecond)
	mc.advance(w, 21*time.Millisecond)
	select {
	case <-tk.C:
	default:
		t.Fatal("no tick after one interval")
	}
	// The ticker re-arms itself relative to its fire time.
	mc.advance(w, 21*time.Millisecond)
	select {
	case <-tk.C:
	default:
		t.Fatal("no tick after the second interval")
	}
	tk.Stop()
	mc.advance(w, 100*time.Millisecond)
	select {
	case <-tk.C:
		t.Fatal("tick delivered after Stop")
	default:
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

// A ticker whose arm instants fall mid-tick (the normal case under the
// real driver) keeps its cadence: every re-arm is a fresh mid-tick
// deadline, so one late lap per re-arm would stall it after a few ticks.
func TestWheelTickerKeepsCadenceOffTickBoundary(t *testing.T) {
	mc := newManualClock()
	w := NewTimerWheel(mc.clock(), 5*time.Millisecond)
	defer w.Close()

	mc.advance(w, 2*time.Millisecond) // arm 2ms into a tick: first due at 22ms
	tk := w.Ticker(20 * time.Millisecond)
	defer tk.Stop()
	mc.advance(w, 3*time.Millisecond) // back on the 5ms grid, as the driver runs
	ticks := 0
	for i := 0; i < 19; i++ { // up to 100ms of clock in driver-sized steps
		mc.advance(w, 5*time.Millisecond)
		select {
		case <-tk.C:
			ticks++
		default:
		}
	}
	if ticks < 4 {
		t.Fatalf("Ticker(20ms) delivered %d ticks in 100ms, want >= 4", ticks)
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
