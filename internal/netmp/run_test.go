package netmp

// Pipelined runs on the preferred path: one write carries a run's range
// requests, the 206s come back in order, and a fault inside a run is
// charged and recovered exactly as it is for a lone request. A chunk that
// starts back to back with a clean one carries its run window; any other
// starts cold.

import (
	"errors"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// The measured chunk is chunk 1 at level 1 of Big Buck Bunny, cut into
// runSegs segments. Cold, its runs are 1, 1, 2, 4, 8 and 16 segments: 6
// request writes. Warm, right after a clean fetch of itself, it is two
// runs of runSegs/2, as the carried window takes at most half the fresh
// segments: 2 writes. The warm-up before it is chunk 0 at level 0, so the
// predictor has a sample, followed by an idle gap (idleClock) so the
// measured chunk starts cold. midRun is the cold chunk's request that
// lands in the middle of its run of eight.
const (
	runSegs = 32
	midRun  = 12
)

// runSegSize returns the segment size that cuts the measured chunk into
// runSegs segments, and how many range requests the warm-up costs at it.
func runSegSize(v *dash.Video) (seg int64, warm int) {
	size := v.ChunkSize(1, 1)
	seg = (size + runSegs - 1) / runSegs
	return seg, int((v.ChunkSize(0, 0) + seg - 1) / seg)
}

// idleClock gives f a wall clock that idle moves on by two controllerTicks,
// so the next chunk starts after an idle gap without the test sleeping.
func idleClock(f *Fetcher) (idle func()) {
	var skew atomic.Int64
	f.SetClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })
	return func() { skew.Add(int64(2 * controllerTick)) }
}

// warmUp fetches the warm-up chunk on f and lets the path go idle,
// returning f's idleClock.
func warmUp(t *testing.T, f *Fetcher) (idle func()) {
	t.Helper()
	idle = idleClock(f)
	if _, err := f.FetchChunk(0, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	idle()
	return idle
}

// countWrites counts, through the test hook, the request writes of f's
// preferred path until t ends: one per attempt, however the server's
// reads happen to split them.
func countWrites(t *testing.T, f *Fetcher) *atomic.Int64 {
	n, pc := new(atomic.Int64), f.paths[0]
	testHookRequests = func(w *pathConn) {
		if w == pc {
			n.Add(1)
		}
	}
	t.Cleanup(func() { testHookRequests = nil })
	return n
}

// plannedServer starts an unshaped ChunkServer that injects plan's faults
// (nil = none), closed when t ends.
func plannedServer(t *testing.T, v *dash.Video, plan *FaultPlan) *ChunkServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &ChunkServer{start: time.Now(), plan: plan}
	if plan != nil {
		s.faultRN = newFaultRand(plan.Seed)
	}
	s.front = newFront(v, ln, 0, s)
	t.Cleanup(func() { s.Close() })
	return s
}

// countingSource serves generated bodies and counts the range requests
// the front parsed.
type countingSource struct{ requests atomic.Int64 }

func (s *countingSource) chunk(int, int, int64) (chunkBody, error) {
	s.requests.Add(1)
	return chunkBody{}, nil
}

func TestPrimaryPipelinesRuns(t *testing.T) {
	v := dash.BigBuckBunny()
	seg, _ := runSegSize(v)
	secondary, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()
	for _, tc := range []struct {
		name        string
		mbps        float64
		secondaries []string
		warm        bool  // fetch the measured chunk once, back to back, before measuring it
		writes      int64 // request writes; 0: one per request
	}{
		{"unshaped", 0, []string{secondary.Addr()}, false, 6},
		{"unshaped warm", 0, []string{secondary.Addr()}, true, 2},
		// A tick's work is 10 kB, under one segment. The path runs alone:
		// a secondary would engage before the first segment lands, and
		// then it, not the forecast, would keep the runs at one.
		{"4 Mbps", 4, nil, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{}
			primary := newFront(v, ln, tc.mbps, src)
			defer primary.Close()
			f, err := NewFetcher(v, primary.Addr(), tc.secondaries...)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			writes := countWrites(t, f)
			f.SegmentSize = seg
			warmUp(t, f)
			if tc.warm {
				if _, err := f.FetchChunk(1, 1, 10*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			writes0, reqs0 := writes.Load(), src.requests.Load()
			res, err := f.FetchChunk(1, 1, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkComplete(t, res)
			if res.SecondaryBytes != 0 {
				t.Fatalf("the secondary carried %d bytes under a loose deadline", res.SecondaryBytes)
			}
			n, reqs := writes.Load()-writes0, src.requests.Load()-reqs0
			t.Logf("%d range requests in %d writes", reqs, n)
			if reqs != runSegs {
				t.Errorf("%d range requests, want one per segment (%d)", reqs, runSegs)
			}
			if tc.writes > 0 && n != tc.writes {
				t.Errorf("%d request writes, want %d", n, tc.writes)
			}
			if tc.writes == 0 && n != reqs {
				t.Errorf("%d request writes for %d requests, want one each", n, reqs)
			}
		})
	}
}

// TestRunWindowRestartsCold: the path is warm after a clean fetch of the
// measured chunk; then each restart rule, applied in between, leaves the
// next fetch of it cold, at 6 request writes.
func TestRunWindowRestartsCold(t *testing.T) {
	v := dash.BigBuckBunny()
	seg, warm := runSegSize(v)
	third := warm + runSegs // requests before the chunk that applies the rule
	for _, tc := range []struct {
		name  string
		plan  *FaultPlan
		apply func(t *testing.T, f *Fetcher, idle func())
	}{
		{"idle gap", nil, func(_ *testing.T, _ *Fetcher, idle func()) { idle() }},
		// The stall holds the chunk open while the secondary, past its
		// deadline at once, engages.
		{"secondary engaged", &FaultPlan{Script: map[int]FaultKind{third + 1: FaultStall}, StallFor: 100 * time.Millisecond},
			func(t *testing.T, f *Fetcher, _ func()) {
				if fetchMeasured(t, f, time.Nanosecond); !f.st.engagedAny.Load() {
					t.Fatal("the secondary never engaged")
				}
			}},
		{"corrupt body", &FaultPlan{Script: map[int]FaultKind{third + midRun: FaultCorrupt}},
			func(t *testing.T, f *Fetcher, _ func()) {
				if res := fetchMeasured(t, f, 10*time.Second); res.Retries == 0 || res.Redials != 0 {
					t.Fatalf("retries %d, redials %d: want the corrupt body charged, no redial", res.Retries, res.Redials)
				}
			}},
		{"redial", &FaultPlan{Script: map[int]FaultKind{third + midRun: FaultReset}},
			func(t *testing.T, f *Fetcher, _ func()) {
				if res := fetchMeasured(t, f, 10*time.Second); res.Redials == 0 {
					t.Fatal("the reset cost no redial")
				}
			}},
		// The stall holds the chunk open past the doom test's progress gate;
		// then the forecast collapses, and is held down until a doom test
		// dooms the chunk: on a slow host the secondary's samples, landing
		// after the collapse, would lift it again.
		{"doomed", &FaultPlan{Script: map[int]FaultKind{third + 1: FaultStall}, StallFor: 250 * time.Millisecond},
			func(t *testing.T, f *Fetcher, _ func()) {
				f.Abort = AbortPolicy{Enabled: true, MinProgress: 0.05}
				release := holdForecast(f, 1000, 80*time.Millisecond)
				_, err := f.FetchChunk(1, 1, time.Second)
				release()
				if !errors.Is(err, ErrChunkDoomed) {
					t.Fatalf("err = %v, want ErrChunkDoomed", err)
				}
				f.Abort = AbortPolicy{}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := plannedServer(t, v, tc.plan)
			ss, err := NewChunkServer(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			f, err := NewFetcher(v, ps.Addr(), ss.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			writes := countWrites(t, f)
			f.SegmentSize, f.Retry = seg, fastRetry()
			idle := warmUp(t, f)
			fetchMeasured(t, f, 10*time.Second)
			tc.apply(t, f, idle)
			writes0 := writes.Load()
			fetchUncapped(t, f)
			if n := writes.Load() - writes0; n != 6 {
				t.Errorf("%d request writes after the %s, want 6 (a cold start)", n, tc.name)
			}
		})
	}
}

// TestWarmRunOnADegradingPath: the preferred path drops to 2 Mbps as the
// measured chunk starts, so it alone would miss the deadline. Cold or
// warm, the secondary takes part of the chunk and the deadline is met: a
// warm first run holds half the chunk, which leaves the secondary the rest.
// (Were it to hold the whole chunk, the secondary would find nothing to
// take and the chunk would miss by some 0.6 s.)
func TestWarmRunOnADegradingPath(t *testing.T) {
	v := dash.BigBuckBunny()
	seg, _ := runSegSize(v)
	const deadline = 1200 * time.Millisecond
	for _, warm := range []bool{false, true} {
		t.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(t *testing.T) {
			ps, err := NewChunkServer(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			ss, err := NewChunkServer(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			f, err := NewFetcher(v, ps.Addr(), ss.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// The secondary stands by until the path alone would miss
			// 0.8 of the deadline: slack for a loaded host.
			f.SegmentSize, f.Alpha = seg, 0.8
			idle := warmUp(t, f)
			fetchMeasured(t, f, 10*time.Second)
			if !warm {
				idle()
			}
			ps.SetRateMbps(2)
			res := fetchMeasured(t, f, deadline)
			checkComplete(t, res)
			t.Logf("%v, %d primary + %d secondary bytes", res.Duration, res.PrimaryBytes, res.SecondaryBytes)
			if res.SecondaryBytes == 0 {
				t.Error("the secondary delivered nothing")
			}
			if res.MissedBy > 0 {
				t.Errorf("missed the %v deadline by %v", deadline, res.MissedBy)
			}
		})
	}
}

// fetchMeasured fetches the measured chunk with deadline d.
func fetchMeasured(t *testing.T, f *Fetcher, d time.Duration) *FetchResult {
	t.Helper()
	res, err := f.FetchChunk(1, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fetchUncapped fetches the measured chunk on a clock stopped where f's
// clock stands, its forecast seeded far above any loopback rate. With no
// time passing and no rate sample taken, neither the forecast nor the
// delivered rate caps a run: the runs follow the carried window and the
// delivered segments alone, 1, 1, 2, 4, 8 and 16 from a cold start. On
// the running clock, a Holt-Winters trend driven below zero by noisy
// loopback samples can cap one (runs of 1, 1, 1, 3, 6, 12 and 8 seen).
// The I/O deadline, set on the stopped clock, is loosened to match.
func fetchUncapped(t *testing.T, f *Fetcher) {
	t.Helper()
	now := f.clk.now()
	f.SetClock(func() time.Time { return now })
	f.Retry.IOTimeout = 10 * time.Second
	seedForecast(f, 1e12)
	checkComplete(t, fetchMeasured(t, f, 10*time.Second))
}

// holdForecast seeds f's forecast at rate every millisecond, from after
// on, until the returned release, which returns after the last seed.
func holdForecast(f *Fetcher, rate float64, after time.Duration) (release func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-time.After(after):
		case <-quit:
			return
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			seedForecast(f, rate)
			select {
			case <-tick.C:
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// seedForecast restarts f's service-rate forecast at rate bytes/s.
func seedForecast(f *Fetcher, rate float64) {
	f.hedge.mu.Lock()
	f.hedge.hw.Reset()
	f.hedge.hw.Seed(rate)
	f.hedge.mu.Unlock()
}

// ioSyscalls returns the process's read and write syscalls so far (syscr
// and syscw in /proc/self/io: every goroutine's read and write, writev
// included), skipping the test where the file is missing.
func ioSyscalls(t *testing.T) (reads, writes int64) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no syscall counters: %v", err)
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, err := strconv.ParseInt(v, 10, 64)
		switch {
		case err != nil:
		case k == "syscr":
			reads, found = n, found+1
		case k == "syscw":
			writes, found = n, found+1
		}
	}
	if found != 2 {
		t.Skip("no syscr and syscw lines in /proc/self/io")
	}
	return reads, writes
}

// measuredChunkSyscalls fetches the measured chunk from a lone origin
// shaped to mbps (0 = unshaped), cold or warm, on one P, and returns the
// read and write syscalls it cost, client and server together. On one P
// no thread sleeps in the netpoller while another arms a timer, so the
// runtime's wake-ups drop out and the counts repeat exactly.
func measuredChunkSyscalls(t *testing.T, mbps float64, warm bool) (reads, writes int64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := dash.BigBuckBunny()
	seg, _ := runSegSize(v)
	s, err := NewChunkServer(v, mbps)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := NewFetcher(v, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = seg
	warmUp(t, f)
	if warm {
		fetchMeasured(t, f, 10*time.Second)
	}
	r0, w0 := ioSyscalls(t)
	res, err := f.FetchChunk(1, 1, 10*time.Second)
	r, w := ioSyscalls(t)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	return r - r0, w - w0
}

// TestPipelinedRunWriteSyscalls counts the measured chunk's write
// syscalls, client and server together, on a lone origin.
// Unshaped, the 206s of a run leave in writevs of up to 64 KiB: 20 writes
// cold (70 when every 206 block was a write of its own), 14 warm, where
// the 6 request writes are two. At 4 Mbps runs are 1 and every block past
// the burst waits on the shaper and leaves on its own, so the count stays
// where it was: 96 then, bounded here at 10 % over.
func TestPipelinedRunWriteSyscalls(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mbps  float64
		warm  bool
		exact bool
		want  int64
	}{
		{"unshaped", 0, false, true, 20},
		{"unshaped warm", 0, true, true, 14},
		{"4 Mbps", 4, false, false, 105},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, w := measuredChunkSyscalls(t, tc.mbps, tc.warm)
			t.Logf("%d-segment chunk: %d write syscalls", runSegs, w)
			if tc.exact && w != tc.want {
				t.Errorf("%d write syscalls, want %d", w, tc.want)
			}
			if !tc.exact && w > tc.want {
				t.Errorf("%d write syscalls, want at most %d", w, tc.want)
			}
		})
	}
}

// TestPipelinedRunReadSyscalls counts the measured chunk's read syscalls,
// client and server together, on a lone unshaped origin. A pipelined
// attempt reads its 206s through a lent 64 KiB window, so one read can
// take a whole server writev and each body is checked where it landed:
// 35 reads cold and 18 warm, where a 4 KiB reader and a read per 16 KiB
// block took 90 and 74.
func TestPipelinedRunReadSyscalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm bool
		want int64
	}{
		{"cold", false, 35},
		{"warm", true, 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := measuredChunkSyscalls(t, 0, tc.warm)
			t.Logf("%d-segment chunk: %d read syscalls", runSegs, r)
			if r != tc.want {
				t.Errorf("%d read syscalls, want %d", r, tc.want)
			}
		})
	}
}

// runFaultRig is an unshaped primary and a clean secondary whose fetcher
// has fetched the warm-up chunk and gone idle; the primary injects fault
// at the measured chunk's midRun-th request.
func runFaultRig(t *testing.T, fault FaultKind) (*ChunkServer, *Fetcher) {
	t.Helper()
	v := dash.BigBuckBunny()
	seg, warm := runSegSize(v)
	ps, _, f := faultRig(t, 0, 0, &FaultPlan{Script: map[int]FaultKind{warm + midRun: fault}, StallFor: 1500 * time.Millisecond})
	f.SegmentSize = seg
	warmUp(t, f)
	return ps, f
}

func TestPipelinedRunCorruptRetriesOnSameConn(t *testing.T) {
	ps, f := runFaultRig(t, FaultCorrupt)
	served0 := ps.ServedBytes()
	res, err := f.FetchChunk(1, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Redials != 0 {
		t.Errorf("corruption cost %d redials; the framing was intact", res.Redials)
	}
	if res.Retries < 1 {
		t.Errorf("retries = %d, want the corrupt attempt charged", res.Retries)
	}
	if got := ps.FaultStats().Corruptions; got != 1 {
		t.Errorf("server injected %d corruptions, want 1", got)
	}
	if served := ps.ServedBytes() - served0; served != res.PrimaryBytes+res.WastedBytes {
		t.Errorf("primary served %d bytes, client verified %d and wasted %d", served, res.PrimaryBytes, res.WastedBytes)
	}
}

func TestPipelinedRunResetRedialsOnce(t *testing.T) {
	ps, f := runFaultRig(t, FaultReset)
	res, err := f.FetchChunk(1, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if res.Redials < 1 {
		t.Errorf("redials = %d, want the reset to cost one", res.Redials)
	}
	if res.Retries != 1 {
		t.Errorf("retries = %d, want the reset charged once", res.Retries)
	}
	if got := ps.FaultStats().Resets; got != 1 {
		t.Errorf("server injected %d resets, want 1", got)
	}
}

func TestPipelinedRunOutlivesRequestCap(t *testing.T) {
	ps, f := runFaultRig(t, FaultNone)
	_, warm := runSegSize(f.Video)
	ps.SetLimits(ServerLimits{MaxRequestsPerConn: warm + midRun})
	res, err := f.FetchChunk(1, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res)
	if got := ps.OverloadStats().CappedConns; got != 1 {
		t.Errorf("server capped %d connections, want 1", got)
	}
}

// A doom verdict that lands while a run is stalled mid-body cuts the run:
// its unsettled segments are released, not requeued, and the fetcher
// fetches the next chunk on restored connections.
func TestPipelinedRunDoomReleases(t *testing.T) {
	_, f := runFaultRig(t, FaultStall)
	f.Abort = AbortPolicy{Enabled: true, MinProgress: 0.05}
	f.Retry.IOTimeout = 2 * time.Second // outlasts the stall
	// The primary stalls at midRun for 1.5 s; well inside that, and past
	// the doom test's 100 ms progress gate, collapse the forecast so the
	// next doom test finds the chunk hopeless.
	collapse := time.AfterFunc(150*time.Millisecond, func() {
		f.hedge.mu.Lock()
		f.hedge.hw.Reset()
		f.hedge.hw.Seed(1000)
		f.hedge.mu.Unlock()
	})
	defer collapse.Stop()
	res, err := f.FetchChunk(1, 1, 2*time.Second)
	if !errors.Is(err, ErrChunkDoomed) {
		t.Fatalf("err = %v, want ErrChunkDoomed", err)
	}
	f.st.mu.Lock()
	inflight := f.st.inflight
	f.st.mu.Unlock()
	if inflight != 0 {
		t.Errorf("ledger holds %d segments in flight after the abort", inflight)
	}
	if res.Requeued != 0 {
		t.Errorf("abort spent %d requeue budget", res.Requeued)
	}
	res2, err := f.FetchChunk(2, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, res2)
}

// TestSegmentBudgetHoldsInsideARun: a segment gets SegmentBudget attempts
// on a path, inside a pipelined run as alone. Every level-1 response of
// the one path is corrupt; with a budget of one attempt, each corrupt
// response is one requeue, until a segment's second requeue exhausts the
// chunk. The warm-up leaves a warm run window, so the measured chunk opens
// with a run of many segments.
func TestSegmentBudgetHoldsInsideARun(t *testing.T) {
	v := dash.BigBuckBunny()
	seg, _ := runSegSize(v)
	ps := plannedServer(t, v, &FaultPlan{CorruptProb: 1, Levels: []int{1}})
	f, err := NewFetcher(v, ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counted := countWrites(t, f)
	f.SegmentSize, f.Retry = seg, fastRetry()
	f.Retry.SegmentBudget, f.Retry.RequeueBudget = 1, 1
	if _, err := f.FetchChunk(0, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	writes0 := counted.Load()
	res, err := f.FetchChunk(1, 1, 10*time.Second)
	if !errors.Is(err, ErrChunkExhausted) {
		t.Fatalf("err = %v, want ErrChunkExhausted", err)
	}
	corrupt, writes := ps.FaultStats().Corruptions, counted.Load()-writes0
	t.Logf("%d corrupt responses in %d request writes, %d requeues", corrupt, writes, res.Requeued)
	if writes >= corrupt {
		t.Errorf("%d request writes for %d requests: the chunk never ran a pipelined run", writes, corrupt)
	}
	if corrupt != res.Requeued {
		t.Errorf("%d corrupt responses for %d requeues, want one attempt per requeue", corrupt, res.Requeued)
	}
}

// TestRunResetRetriesOwedTogether: a reset in the middle of the cold
// chunk's run of eight costs one redial, and the run's owed rest (the
// segment the reset cut and those after it) leaves in one request write:
// runs of 1, 1, 2, 4, the cut 8, the owed 5 and then 16 are 7 writes.
func TestRunResetRetriesOwedTogether(t *testing.T) {
	v := dash.BigBuckBunny()
	seg, warm := runSegSize(v)
	ps := plannedServer(t, v, &FaultPlan{Script: map[int]FaultKind{warm + midRun: FaultReset}})
	f, err := NewFetcher(v, ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writes := countWrites(t, f)
	f.SegmentSize, f.Retry = seg, fastRetry()
	warmUp(t, f)
	writes0 := writes.Load()
	res := fetchMeasured(t, f, 10*time.Second)
	checkComplete(t, res)
	if res.Redials != 1 || res.Retries != 1 {
		t.Errorf("redials %d, retries %d: want the reset charged once and redialled once", res.Redials, res.Retries)
	}
	if got := ps.FaultStats().Resets; got != 1 {
		t.Errorf("server injected %d resets, want 1", got)
	}
	if n := writes.Load() - writes0; n != 7 {
		t.Errorf("%d request writes, want 7: the owed rest of the cut run in one", n)
	}
}
