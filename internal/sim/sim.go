// Package sim is the discrete-event simulation kernel underneath the
// reproduction's network stack. It provides a virtual clock and an event
// queue with deterministic ordering: events fire in (time, sequence) order,
// so two runs of the same experiment are bit-for-bit identical.
package sim

import (
	"fmt"
	"time"
)

// Simulator owns the virtual clock and the pending event set.
// The zero value is ready to use. Simulator is not safe for concurrent use;
// the whole network stack runs single-threaded on one Simulator, which is
// what makes experiments deterministic.
type Simulator struct {
	now   time.Duration
	seq   uint64
	queue []event // binary min-heap on (at, seq)
}

// event is one pending callback, kept by value in the heap: scheduling
// allocates nothing once the queue has grown to its working depth.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// New returns a Simulator starting at virtual time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time (duration since simulation start).
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero (fires at the current time, after already-queued events at that
// time). A scheduled event cannot be withdrawn, so no handle is returned:
// a callback that may have become stale checks its owner's state when it
// fires.
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute virtual time at. Times in the
// past are clamped to now.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) {
	s.ScheduleSeq(at, s.ReserveSeq(), fn)
}

// ReserveSeq takes the next sequence number without queueing anything: an
// event's place among those sharing its timestamp is fixed when it is
// decided, not when it enters the heap. A link reserves at Send, parks the
// packet behind those ahead of it, and queues it when it reaches the front.
func (s *Simulator) ReserveSeq() uint64 {
	s.seq++
	return s.seq - 1
}

// ScheduleSeq enqueues fn at time at (clamped to now) under a sequence
// number ReserveSeq returned earlier. The holder of seq must queue it
// before any later-ordered event of its own could fire, and only once.
func (s *Simulator) ScheduleSeq(at time.Duration, seq uint64, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: ScheduleSeq with sequence number %d, never reserved (next is %d)", seq, s.seq))
	}
	if at < s.now {
		at = s.now
	}
	ev := event{at: at, seq: seq, fn: fn}
	// Sift up: move parents down into the hole until ev fits.
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	s.queue = q
}

// pop removes and returns the earliest event. The queue must not be empty.
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	s.queue = q
	// Sift down: move the smaller child up into the hole until last fits.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// Step runs the single earliest pending event. It reports whether an event
// was run (false means the queue is empty).
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	if ev.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", ev.at, s.now))
	}
	s.now = ev.at
	ev.fn()
	return true
}

// RunUntil processes events until the predicate returns true, the queue
// drains, or the virtual clock passes limit. It reports whether the
// predicate was satisfied.
func (s *Simulator) RunUntil(limit time.Duration, done func() bool) bool {
	for {
		if done != nil && done() {
			return true
		}
		if len(s.queue) == 0 || s.queue[0].at > limit {
			return done != nil && done()
		}
		s.Step()
	}
}

// AdvanceTo moves the virtual clock forward to at, firing any events due on
// the way. Events scheduled exactly at `at` fire too. If at is in the past
// it is a no-op.
func (s *Simulator) AdvanceTo(at time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= at {
		s.Step()
	}
	if at > s.now {
		s.now = at
	}
}

// Advance moves the clock forward by d, firing due events. See AdvanceTo.
func (s *Simulator) Advance(d time.Duration) { s.AdvanceTo(s.now + d) }

// Pending returns the number of entries in the event heap: not every event
// still to come — a link keeps one entry per in-flight list and parks the
// packets behind it — but zero exactly when nothing is pending.
func (s *Simulator) Pending() int { return len(s.queue) }
