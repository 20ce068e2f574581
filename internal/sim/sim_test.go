package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Step()
	if !fired || s.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, s.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	s.Step()
	fired := time.Duration(-1)
	s.ScheduleAt(0, func() { fired = s.Now() })
	s.Step()
	if fired != time.Second {
		t.Errorf("past event fired at %v, want clamp to 1s", fired)
	}
}

// TestOrderIsStableSortOnClampedTime is the queue's whole contract: a few
// thousand events, most of them sharing a timestamp with others, some
// scheduled from inside handlers and some aimed at the past, fire in
// exactly the order a stable sort on (clamped time, insertion order)
// gives.
func TestOrderIsStableSortOnClampedTime(t *testing.T) {
	type rec struct {
		at time.Duration // after clamping to the clock at insertion
		id int           // insertion order
	}
	s := New()
	rng := rand.New(rand.NewSource(7))
	var inserted, fired []rec
	past := 0
	var add func(depth int)
	add = func(depth int) {
		// 40 distinct timestamps over 3000+ events; requests made from
		// inside a handler often lie behind the clock.
		at := time.Duration(rng.Intn(40)) * time.Millisecond
		if at < s.Now() {
			past++
		}
		r := rec{at: max(at, s.Now()), id: len(inserted)}
		inserted = append(inserted, r)
		s.ScheduleAt(at, func() {
			if s.Now() != r.at {
				t.Fatalf("event %d fired at %v, want %v", r.id, s.Now(), r.at)
			}
			fired = append(fired, r)
			if depth < 2 && rng.Intn(3) == 0 {
				add(depth + 1)
				add(depth + 1)
			}
		})
	}
	for i := 0; i < 2000; i++ {
		add(0)
	}
	for s.Step() {
	}
	if len(inserted) < 3000 || past < 100 {
		t.Fatalf("%d events, %d aimed at the past: the handlers scheduled too few", len(inserted), past)
	}
	want := append([]rec(nil), inserted...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(fired) != len(want) {
		t.Fatalf("%d events fired, %d scheduled", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("position %d: fired %+v, stable sort gives %+v", i, fired[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after draining", s.Pending())
	}
}

// TestScheduleSeqKeepsReservedOrder: an event's place among those at its
// timestamp is the one it reserved, however late it enters the heap; and
// ScheduleSeq holds ScheduleAt's contracts (past times clamp) plus its
// own (the number must have been reserved).
func TestScheduleSeqKeepsReservedOrder(t *testing.T) {
	s := New()
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	s.ScheduleAt(time.Second, note("a"))
	parked := s.ReserveSeq()
	s.ScheduleAt(time.Second, note("b"))
	s.ScheduleAt(time.Second, func() {
		got = append(got, "c")
		s.ScheduleSeq(0, parked, note("parked, aimed at the past"))
		s.Schedule(0, note("d"))
	})
	s.ScheduleAt(time.Second, note("e"))
	for s.Step() {
	}
	if want := "a b c parked, aimed at the past e d"; strings.Join(got, " ") != want {
		t.Errorf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if s.Now() != time.Second {
		t.Errorf("clock at %v: the past time was not clamped to 1s", s.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("ScheduleSeq accepted a sequence number nobody reserved")
		}
	}()
	s.ScheduleSeq(time.Second, parked+100, func() {})
}

// TestScheduleStepAllocatesNothing: with a func bound beforehand and a
// queue that has reached its depth, scheduling and firing are free.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}); n != 0 {
		t.Errorf("Schedule+Step on a warm queue: %v allocs, want 0", n)
	}
	deep, i := deepQueue(fn), 0
	if n := testing.AllocsPerRun(1000, func() {
		deepQueueOp(deep, i, fn)
		i++
	}); n != 0 {
		t.Errorf("deep-queue push/pop: %v allocs, want 0", n)
	}
}

func TestAdvanceTo(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.AdvanceTo(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
	s.Advance(10 * time.Second)
	if len(fired) != 3 || s.Now() != 12*time.Second {
		t.Errorf("fired=%v now=%v", fired, s.Now())
	}
	// AdvanceTo into the past is a no-op.
	s.AdvanceTo(time.Second)
	if s.Now() != 12*time.Second {
		t.Errorf("Now moved backwards: %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.Schedule(time.Second, tick)
	}
	s.Schedule(time.Second, tick)
	ok := s.RunUntil(time.Hour, func() bool { return count >= 5 })
	if !ok || count != 5 {
		t.Errorf("ok=%v count=%d", ok, count)
	}
	// Limit reached before predicate.
	s2 := New()
	s2.Schedule(10*time.Second, func() {})
	if s2.RunUntil(time.Second, func() bool { return false }) {
		t.Error("RunUntil should report predicate unsatisfied")
	}
}

func TestEventsScheduledDuringEvents(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(time.Second, func() {
		got = append(got, "a")
		s.Schedule(0, func() { got = append(got, "a.child") })
	})
	s.Schedule(time.Second, func() { got = append(got, "b") })
	for s.Step() {
	}
	want := []string{"a", "b", "a.child"}
	// A zero-delay child scheduled during "a" carries a later sequence
	// number than "b", which was queued first at the same timestamp... but
	// the child fires at t=1s with seq greater than b's, so order is a, b, child.
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var times []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.Schedule(d, func() { times = append(times, s.Now()) })
		}
		for s.Step() {
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New()
		rng := rand.New(rand.NewSource(99))
		var out []time.Duration
		var spawn func()
		spawn = func() {
			out = append(out, s.Now())
			if len(out) < 100 {
				s.Schedule(time.Duration(rng.Intn(100))*time.Millisecond, spawn)
			}
		}
		s.Schedule(0, spawn)
		for s.Step() {
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
