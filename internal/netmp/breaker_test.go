package netmp

// Circuit-breaker state-machine tests: table-driven transition sequences
// under an injected clock, so open→half-open cooldowns are exact and the
// suite runs in microseconds (and cleanly under -race).

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// breakerOp is one step of a transition table: an outcome fed to the
// breaker, or a clock advance.
type breakerOp struct {
	op   string        // "ok", "fail", "advance", "allow", "deny"
	d    time.Duration // for "advance"
	want BreakerState  // state expected after the step
}

func runBreakerTable(t *testing.T, pol BreakerPolicy, steps []breakerOp) {
	t.Helper()
	now := time.Unix(0, 0)
	b := NewCircuitBreaker(pol)
	b.now = func() time.Time { return now }
	for i, s := range steps {
		switch s.op {
		case "ok":
			b.RecordSuccess()
		case "fail":
			b.RecordFailure(errors.New("boom"))
		case "advance":
			now = now.Add(s.d)
		case "allow":
			if !b.Allow() {
				t.Fatalf("step %d: Allow() = false, want true", i)
			}
		case "deny":
			if b.Allow() {
				t.Fatalf("step %d: Allow() = true, want false", i)
			}
		default:
			t.Fatalf("step %d: unknown op %q", i, s.op)
		}
		if got := b.State(); got != s.want {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, got, s.want)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	pol := BreakerPolicy{Window: 8, MinSamples: 4, TripErrorRate: 0.5, Cooldown: time.Second}
	for _, tc := range []struct {
		name  string
		pol   BreakerPolicy
		steps []breakerOp
	}{
		{
			name: "closed stays closed below min samples",
			pol:  pol,
			steps: []breakerOp{
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed}, // 3 < MinSamples: no trip
				{op: "allow", want: BreakerClosed},
			},
		},
		{
			name: "error rate trips at min samples",
			pol:  pol,
			steps: []breakerOp{
				{op: "ok", want: BreakerClosed},
				{op: "ok", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerOpen}, // 2/4 = 0.5 >= TripErrorRate
				{op: "deny", want: BreakerOpen},
			},
		},
		{
			name: "successes keep the rate below the trip line",
			pol:  pol,
			steps: []breakerOp{
				{op: "ok", want: BreakerClosed},
				{op: "ok", want: BreakerClosed},
				{op: "ok", want: BreakerClosed},
				{op: "fail", want: BreakerClosed}, // 1/4 < 0.5
				{op: "ok", want: BreakerClosed},
				{op: "fail", want: BreakerClosed}, // 2/6 < 0.5
				{op: "allow", want: BreakerClosed},
			},
		},
		{
			name: "cooldown admits a single half-open probe",
			pol:  pol,
			steps: []breakerOp{
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerOpen},
				{op: "advance", d: 999 * time.Millisecond, want: BreakerOpen}, // one tick short
				{op: "advance", d: time.Millisecond, want: BreakerHalfOpen},
				{op: "allow", want: BreakerHalfOpen}, // probe slot consumed
				{op: "deny", want: BreakerHalfOpen},  // only one probe in flight
			},
		},
		{
			name: "probe success closes and clears the window",
			pol:  pol,
			steps: []breakerOp{
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerOpen},
				{op: "advance", d: time.Second, want: BreakerHalfOpen},
				{op: "allow", want: BreakerHalfOpen},
				{op: "ok", want: BreakerClosed},
				// The window was reset on close: one fresh failure must not
				// re-trip against the stale pre-trip samples.
				{op: "fail", want: BreakerClosed},
				{op: "allow", want: BreakerClosed},
			},
		},
		{
			name: "probe failure reopens and restarts the cooldown",
			pol:  pol,
			steps: []breakerOp{
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerClosed},
				{op: "fail", want: BreakerOpen},
				{op: "advance", d: time.Second, want: BreakerHalfOpen},
				{op: "allow", want: BreakerHalfOpen},
				{op: "fail", want: BreakerOpen},
				{op: "advance", d: 500 * time.Millisecond, want: BreakerOpen}, // cooldown restarted
				{op: "advance", d: 500 * time.Millisecond, want: BreakerHalfOpen},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { runBreakerTable(t, tc.pol, tc.steps) })
	}
}

func TestBreakerTripCountAndHealthy(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewCircuitBreaker(BreakerPolicy{Window: 4, MinSamples: 2, TripErrorRate: 0.5, Cooldown: time.Second})
	b.now = func() time.Time { return now }
	if !b.Healthy() {
		t.Fatal("new breaker not healthy")
	}
	b.RecordFailure(errors.New("a"))
	b.RecordFailure(errors.New("b"))
	if b.Trips() != 1 || b.Healthy() {
		t.Fatalf("trips=%d healthy=%v after trip", b.Trips(), b.Healthy())
	}
	now = now.Add(time.Second)
	// Healthy must not consume the half-open probe slot.
	if !b.Healthy() || !b.Healthy() {
		t.Fatal("Healthy consumed the probe slot")
	}
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.RecordFailure(errors.New("c"))
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	// Hammer one breaker from many goroutines; -race is the assertion.
	b := NewCircuitBreaker(BreakerPolicy{Window: 16, Cooldown: time.Millisecond})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (i+g)%3 == 0 {
						b.RecordFailure(fmt.Errorf("g%d i%d", g, i))
					} else {
						b.RecordSuccess()
					}
				}
				b.State()
				b.Healthy()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
