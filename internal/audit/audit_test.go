package audit

import (
	"strings"
	"testing"
	"time"

	"mpdash/internal/obs"
)

func quickConfig() Config {
	return Config{SettleTimeout: 200 * time.Millisecond}
}

func findViolation(res *Result, inv string) (Violation, bool) {
	for _, v := range res.Violations {
		if v.Invariant == inv {
			return v, true
		}
	}
	return Violation{}, false
}

func TestCleanRunPasses(t *testing.T) {
	a := New(quickConfig())
	a.Start()
	a.Watch(obs.NewEvent("chunk.abort").WithChunk(3, 2))
	a.Watch(obs.NewEvent("stream.downgrade").WithChunk(3, 2))
	note := a.Playback(1)
	for i := 0; i < 5; i++ {
		note(i, false)
	}
	a.CheckTotals(0, 0, 1e9)
	res := a.Finish()
	if !res.OK() {
		t.Fatalf("clean run failed the audit: %s", res.Summary())
	}
	if res.Events != 2 {
		t.Fatalf("watched %d events, want 2", res.Events)
	}
	if !strings.Contains(res.Summary(), "PASS") {
		t.Fatalf("summary lacks PASS:\n%s", res.Summary())
	}
}

func TestLedgerViolation(t *testing.T) {
	a := New(quickConfig())
	a.Start()
	a.CheckTotals(3, 0, 1e9)
	res := a.Finish()
	if v, ok := findViolation(res, InvLedger); !ok || !strings.Contains(v.Detail, "3 sessions") {
		t.Fatalf("ledger violation missing or wrong: %s", res.Summary())
	}
}

func TestPlaybackMonotonicity(t *testing.T) {
	a := New(quickConfig())
	a.Start()
	note := a.Playback(7)
	note(0, false)
	note(1, true)
	note(1, false) // replay: violation
	note(0, false) // backwards: violation
	note(2, false) // recovery is fine
	// An independent session reusing the same indices is NOT a violation.
	other := a.Playback(8)
	other(0, false)
	other(1, false)
	res := a.Finish()
	n := 0
	for _, v := range res.Violations {
		if v.Invariant == InvPlayback {
			n++
			if !strings.Contains(v.Detail, "session 7") {
				t.Fatalf("violation names the wrong session: %s", v)
			}
		}
	}
	if n != 2 {
		t.Fatalf("got %d playback violations, want 2: %s", n, res.Summary())
	}
}

func TestAbortPairing(t *testing.T) {
	a := New(quickConfig())
	a.Start()
	// Orphan downgrade: no outstanding abort.
	a.Watch(obs.NewEvent("stream.downgrade").WithChunk(1, 2))
	// Unpaired abort: never downgraded.
	a.Watch(obs.NewEvent("chunk.abort").WithChunk(4, 2))
	res := a.Finish()
	got := map[string]bool{}
	for _, v := range res.Violations {
		if v.Invariant == InvPairing {
			got[v.Detail] = true
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d pairing violations, want 2: %s", len(got), res.Summary())
	}
}

func TestWasteBound(t *testing.T) {
	a := New(quickConfig())
	a.Start()
	// 60% of 100 MB wasted: over the default 50% bound.
	a.CheckTotals(0, 60e6, 100e6)
	res := a.Finish()
	if _, ok := findViolation(res, InvWaste); !ok {
		t.Fatalf("waste violation missing: %s", res.Summary())
	}

	// Under the minWasteBytes floor the fraction is never judged.
	b := New(quickConfig())
	b.Start()
	b.CheckTotals(0, 900, 1000)
	if res := b.Finish(); !res.OK() {
		t.Fatalf("tiny-run waste judged: %s", res.Summary())
	}
}

func TestGoroutineLeakDetected(t *testing.T) {
	a := New(Config{SettleTimeout: 150 * time.Millisecond, GoroutineSlack: 1})
	a.Start()
	// Leak goroutines past the slack and keep them parked beyond the
	// settle timeout.
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 4; i++ {
		go func() { <-release }()
	}
	res := a.Finish()
	v, ok := findViolation(res, InvLeak)
	if !ok {
		t.Fatalf("leak not detected: %s", res.Summary())
	}
	if !strings.Contains(v.Detail, "sample stacks") {
		t.Fatalf("leak violation lacks the stack hint: %s", v.Detail)
	}
}

func TestGoroutineSettleWithinTimeout(t *testing.T) {
	a := New(Config{SettleTimeout: 2 * time.Second, GoroutineSlack: 1})
	a.Start()
	// Transient goroutines that exit shortly after Finish starts polling
	// must NOT count as a leak.
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			time.Sleep(50 * time.Millisecond)
			<-done
		}()
	}
	close(done)
	res := a.Finish()
	if _, ok := findViolation(res, InvLeak); ok {
		t.Fatalf("transient goroutines flagged as leak: %s", res.Summary())
	}
}

func TestViolationCapAndJournal(t *testing.T) {
	tel := obs.New()
	a := New(Config{SettleTimeout: 100 * time.Millisecond, Sink: tel})
	tel.OnEmit = a.Watch // the production wiring: auditor watches its own sink
	a.Start()
	for i := 0; i < MaxViolations+10; i++ {
		// Orphan downgrades; each is a violation and an audit.violation
		// event, which Watch must ignore without recursing.
		tel.Emit(obs.NewEvent("stream.downgrade").WithChunk(i, 0))
	}
	res := a.Finish()
	if len(res.Violations) != MaxViolations || res.Truncated != 10 {
		t.Fatalf("cap broken: %d kept, %d truncated", len(res.Violations), res.Truncated)
	}
	if res.Count() != MaxViolations+10 {
		t.Fatalf("Count = %d", res.Count())
	}
	// audit.* events are not watched as run events.
	if res.Events != MaxViolations+10 {
		t.Fatalf("watched %d events, want %d (audit.* must be ignored)", res.Events, MaxViolations+10)
	}
	var sawViolation, sawDone bool
	for _, e := range tel.Journal.Events() {
		switch e.Type {
		case "audit.violation":
			sawViolation = true
		case "audit.done":
			sawDone = true
			if e.Num["violations"] != float64(MaxViolations+10) {
				t.Fatalf("audit.done violations = %g", e.Num["violations"])
			}
		}
	}
	if !sawViolation || !sawDone {
		t.Fatal("journal lacks audit.violation / audit.done events")
	}
}
