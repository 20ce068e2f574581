package netmp

// Origin-set tests: ranked failover, failback after recovery, the
// single-origin escape hatch, and end-to-end failover through the
// supervised fetcher when an origin is blackholed mid-fetch.

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
)

// tripBreaker drives b open with failures.
func tripBreaker(b *CircuitBreaker) {
	for i := 0; i < b.pol.Window && b.State() != BreakerOpen; i++ {
		b.RecordFailure(errors.New("down"))
	}
}

func TestOriginSetFailoverAndFailback(t *testing.T) {
	pol := BreakerPolicy{Window: 4, MinSamples: 2, TripErrorRate: 0.5, Cooldown: time.Second}
	set, err := NewOriginSet("p", []string{"a:1", "b:2"}, pol)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for _, o := range set.origins {
		o.breaker.now = func() time.Time { return now }
	}

	if o, ok := set.pick(); !ok || o.addr != "a:1" {
		t.Fatalf("initial pick = %v %v, want a:1", o, ok)
	}
	if set.Failovers() != 0 {
		t.Fatalf("failovers = %d before any trip", set.Failovers())
	}

	// Trip a: pick must fail over to b and count it.
	tripBreaker(set.origins[0].breaker)
	o, ok := set.pick()
	if !ok || o.addr != "b:2" {
		t.Fatalf("pick after trip = %v %v, want b:2", o, ok)
	}
	if set.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", set.Failovers())
	}
	if set.Current() != "b:2" {
		t.Errorf("current = %s, want b:2", set.Current())
	}

	// While a is open, its half-open probe after cooldown goes back to a
	// (preference order): the probe succeeding closes a and fails back.
	now = now.Add(time.Second)
	o, ok = set.pick()
	if !ok || o.addr != "a:1" {
		t.Fatalf("post-cooldown pick = %v %v, want a:1 (half-open probe)", o, ok)
	}
	o.breaker.RecordSuccess()
	if st := set.origins[0].breaker.State(); st != BreakerClosed {
		t.Fatalf("a breaker = %v after probe success", st)
	}
	if set.Failovers() != 2 {
		t.Errorf("failovers = %d, want 2 (failback counts)", set.Failovers())
	}
}

func TestOriginSetSingleOriginForced(t *testing.T) {
	set, err := NewOriginSet("p", []string{"a:1"}, BreakerPolicy{Window: 4, MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	tripBreaker(set.origins[0].breaker)
	// With nowhere to fail over, the sole origin is forced: refusing it
	// would kill the path for faults the retry budgets already bound.
	if o, ok := set.pick(); !ok || o.addr != "a:1" {
		t.Fatalf("single-origin pick = %v %v, want forced a:1", o, ok)
	}
	if set.Failovers() != 0 {
		t.Errorf("failovers = %d on a single-origin set", set.Failovers())
	}
}

func TestOriginSetAllOpenRefuses(t *testing.T) {
	set, err := NewOriginSet("p", []string{"a:1", "b:2"}, BreakerPolicy{Window: 4, MinSamples: 2, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tripBreaker(set.origins[0].breaker)
	tripBreaker(set.origins[1].breaker)
	if _, ok := set.pick(); ok {
		t.Fatal("pick succeeded with every breaker open")
	}
	if _, ok := set.backup(); ok {
		t.Fatal("backup offered with every breaker open")
	}
}

func TestOriginSetBackupSkipsCurrent(t *testing.T) {
	set, err := NewOriginSet("p", []string{"a:1", "b:2", "c:3"}, BreakerPolicy{Window: 4, MinSamples: 2, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := set.backup(); !ok || o.addr != "b:2" {
		t.Fatalf("backup = %v %v, want b:2 (first healthy non-current)", o, ok)
	}
	tripBreaker(set.origins[1].breaker)
	if o, ok := set.backup(); !ok || o.addr != "c:3" {
		t.Fatalf("backup = %v %v, want c:3 after b tripped", o, ok)
	}
}

// multiOriginRig starts two primary-path origin servers plus a clean
// secondary server, and a fetcher whose primary path ranks the two
// origins [A, B].
func multiOriginRig(t *testing.T, brk BreakerPolicy) (origA, origB *ChunkServer, f *Fetcher) {
	t.Helper()
	video := dash.BigBuckBunny()
	var servers []*ChunkServer
	for i := 0; i < 3; i++ {
		s, err := NewChunkServer(video, 16)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	f, err := NewFetcherOrigins(video, brk,
		[]string{servers[0].Addr(), servers[1].Addr()},
		[]string{servers[2].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return servers[0], servers[1], f
}

func TestFetchFailsOverToBackupOrigin(t *testing.T) {
	// The primary path's preferred origin is blackholed mid-fetch. The
	// breaker trips on the failed redials before the redial budget runs
	// out, the path fails over to the backup origin, and the chunk
	// completes with the path still up.
	brk := BreakerPolicy{Window: 4, MinSamples: 2, TripErrorRate: 0.5, Cooldown: 30 * time.Second}
	origA, origB, f := multiOriginRig(t, brk)
	pol := fastRetry()
	pol.MaxRedials = 10 // the breaker (2 failures) must fail over first
	f.Retry = pol
	f.Hedge.Disabled = true // isolate failover from hedging

	time.AfterFunc(80*time.Millisecond, origA.Crash)
	res, err := f.FetchChunk(0, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Failovers == 0 {
		t.Error("no failover recorded")
	}
	st := f.PathStats()[0]
	if st.State == PathDown {
		t.Error("primary path down despite a live backup origin")
	}
	if st.Origin != origB.Addr() {
		t.Errorf("primary origin = %s, want backup %s", st.Origin, origB.Addr())
	}
	if len(st.Origins) != 2 || st.Origins[0].Trips == 0 {
		t.Errorf("origin snapshots missing the trip: %+v", st.Origins)
	}

	// Subsequent chunks flow through the backup from the start.
	res2, err := f.FetchChunk(1, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res2)
}

func TestServerBusyIsTransient(t *testing.T) {
	if !isTransient(errServerBusy) {
		t.Error("503 classified fatal; it must be retried")
	}
	if isTransient(errBadStatus) {
		t.Error("bad status classified transient")
	}
	if !isTransient(errors.New("read: connection reset by peer")) {
		t.Error("I/O error classified fatal")
	}
}

// TestEmptyOriginRejected: a trailing comma in an origin list is no
// origin. SplitOrigins drops the empty entry, and an empty address that
// reaches NewOriginSet fails, naming the path, rather than becoming a
// phantom backup that makes every fill hedgeable.
func TestEmptyOriginRejected(t *testing.T) {
	if got := SplitOrigins(" a:1, b:2,,"); !reflect.DeepEqual(got, []string{"a:1", "b:2"}) {
		t.Errorf("SplitOrigins = %q, want [a:1 b:2]", got)
	}
	if got := SplitOrigins(" , "); got != nil {
		t.Errorf("SplitOrigins of no address = %q, want none", got)
	}
	for _, addrs := range [][]string{{"a:1", ""}, {" ", "a:1"}} {
		if _, err := NewOriginSet("wifi", addrs, BreakerPolicy{}); err == nil || !strings.Contains(err.Error(), "wifi") {
			t.Errorf("NewOriginSet(%q) err = %v, want an error naming the path", addrs, err)
		}
	}
	video := dash.BigBuckBunny()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	if e, err := NewEdgeServer(video, "v", []string{origin.Addr(), ""}, cache.New(cache.Config{}), EdgePolicy{}); err == nil {
		e.Close()
		t.Error("an edge accepted an empty origin address")
	}
}
