package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndStep(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i%100)*time.Microsecond, func() {})
		if i%64 == 0 {
			for s.Step() {
			}
		}
	}
	for s.Step() {
	}
}

// deepQueue is BenchmarkDeepQueue's rig: 10k pending events, one per
// millisecond.
func deepQueue(fn func()) *Simulator {
	s := New()
	for i := 0; i < 10_000; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	return s
}

// deepQueueOp is its body: one push somewhere into the 10k, one pop.
func deepQueueOp(s *Simulator, i int, fn func()) {
	s.Schedule(time.Duration(i%10_000)*time.Millisecond, fn)
	s.Step()
}

func BenchmarkDeepQueue(b *testing.B) {
	fn := func() {}
	s := deepQueue(fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deepQueueOp(s, i, fn)
	}
}
