package netmp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpdash/internal/dash"
)

func TestTokenBucketRate(t *testing.T) {
	tb := NewTokenBucket(100_000, 1) // 100 kB/s, no burst
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := tb.Take(ctx, 2000); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 20 kB at 100 kB/s ≈ 200 ms.
	if elapsed < 120*time.Millisecond || elapsed > 600*time.Millisecond {
		t.Errorf("20kB at 100kB/s took %v, want ≈200ms", elapsed)
	}
}

func TestTokenBucketUnshaped(t *testing.T) {
	tb := NewTokenBucket(0, 0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := tb.Take(context.Background(), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("unshaped bucket blocked")
	}
}

func TestTokenBucketCancel(t *testing.T) {
	tb := NewTokenBucket(1, 1) // 1 B/s: hopeless
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The first take is granted on credit; the second must block on the
	// huge debt and get cancelled.
	if err := tb.Take(ctx, 1_000_000); err != nil {
		t.Fatalf("credit take failed: %v", err)
	}
	if err := tb.Take(ctx, 1); err == nil {
		t.Error("cancelled Take returned nil")
	}
}

// TestTokenBucketRateUnderContention: eight connections, each sleeping on
// its own reused timer, share one bucket for 300 ms and are granted
// what the rate and the burst allow — no more than rate × T + burst plus
// one block of overshoot per taker, no less than rate × T less a block.
func TestTokenBucketRateUnderContention(t *testing.T) {
	const (
		rate   = 2e6 // bytes/s: a 16 KiB block every 8 ms
		burst  = 64 << 10
		block  = 16 << 10
		takers = 8
		span   = 300 * time.Millisecond
	)
	tb := NewTokenBucket(rate, burst)
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(span))
	defer cancel()
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < takers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tm *time.Timer
			for ctx.Err() == nil && tb.takeOn(ctx, block, &tm) == nil {
				granted.Add(block)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) // the last grant came before this
	got := float64(granted.Load())
	if hi := rate*elapsed.Seconds() + burst + takers*block; got > hi {
		t.Errorf("granted %.0f bytes in %v, want at most %.0f", got, elapsed, hi)
	}
	if lo := rate*span.Seconds() - block; got < lo {
		t.Errorf("granted %.0f bytes in %v, want at least %.0f", got, span, lo)
	}
}

// TestTokenBucketTimerReuse: a wait cancelled mid-sleep leaves its timer
// idle, so the next wait on it sleeps until its debt is paid; and a
// cancel that races the timer's fire drains the fire, so the next sleep
// on the timer is not cut short by it.
func TestTokenBucketTimerReuse(t *testing.T) {
	const rate = 100_000 // bytes/s
	tb := NewTokenBucket(rate, 1)
	var tm *time.Timer
	start := time.Now()
	if err := tb.takeOn(context.Background(), 10_000, &tm); err != nil { // on credit: 100 ms of debt
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := tb.takeOn(ctx, 1, &tm)
	cancel()
	if err == nil || tm == nil {
		t.Fatalf("take inside the debt returned %v with timer %v, want a cancelled sleep", err, tm)
	}
	if err := tb.takeOn(context.Background(), 1, &tm); err != nil {
		t.Fatal(err)
	}
	if paid := 10_000 * time.Second / rate; time.Since(start) < paid {
		t.Errorf("take returned %v after a %v debt was run up", time.Since(start), paid)
	}

	// On one P, a cancel lands while the sleeper is parked and the
	// canceller then holds the P past the timer's expiry: the sleeper
	// wakes for the cancel with the fire already queued on the timer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const d = 2 * time.Millisecond
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		go func() {
			cancel()
			for time.Since(start) < 2*d { // spin: no scheduling point
			}
		}()
		sleepOn(ctx, d, &tm)
		begin := time.Now()
		if err := sleepOn(context.Background(), d, &tm); err != nil {
			t.Fatal(err)
		}
		if slept := time.Since(begin); slept < d {
			t.Fatalf("round %d: a %v sleep returned after %v: a stale fire was not drained", i, d, slept)
		}
	}
}

func TestChunkBodyDeterministic(t *testing.T) {
	if ChunkBody(3, 2, 100) != ChunkBody(3, 2, 100) {
		t.Error("not deterministic")
	}
	// Different coordinates give different streams (overwhelmingly).
	same := 0
	for off := int64(0); off < 256; off++ {
		if ChunkBody(1, 1, off) == ChunkBody(1, 2, off) {
			same++
		}
	}
	if same > 32 {
		t.Errorf("%d/256 collisions between levels", same)
	}
}

// rig starts two servers (primary/secondary) and a fetcher.
func rig(t *testing.T, primaryMbps, secondaryMbps float64) (*ChunkServer, *ChunkServer, *Fetcher) {
	t.Helper()
	video := dash.BigBuckBunny()
	ps, err := NewChunkServer(video, primaryMbps)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewChunkServer(video, secondaryMbps)
	if err != nil {
		ps.Close()
		t.Fatal(err)
	}
	f, err := NewFetcher(video, ps.Addr(), ss.Addr())
	if err != nil {
		ps.Close()
		ss.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		ps.Close()
		ss.Close()
	})
	return ps, ss, f
}

func TestLooseDeadlinePrimaryOnly(t *testing.T) {
	_, ss, f := rig(t, 16, 16)
	// Level-0 chunk ≈ 290 kB: ≈150 ms at 16 Mbps. Deadline 3 s: the
	// secondary path must stay dark.
	res, err := f.FetchChunk(0, 0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("payload verification failed")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != size %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
	if res.SecondaryBytes != 0 {
		t.Errorf("secondary carried %d bytes under a loose deadline", res.SecondaryBytes)
	}
	if res.MissedBy != 0 {
		t.Errorf("missed by %v", res.MissedBy)
	}
	if ss.ServedBytes() != 0 {
		t.Errorf("secondary server served %d", ss.ServedBytes())
	}
}

func TestTightDeadlineEngagesSecondary(t *testing.T) {
	_, _, f := rig(t, 2, 16)
	// Level-2 chunk ≈ 735 kB: ≈2.9 s on the 2 Mbps primary alone.
	// Deadline 1.5 s forces the secondary in.
	res, err := f.FetchChunk(1, 2, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("payload verification failed")
	}
	if res.SecondaryBytes == 0 {
		t.Error("secondary never engaged under deadline pressure")
	}
	if res.PrimaryBytes == 0 {
		t.Error("primary idle?")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != size %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
	if res.MissedBy > 700*time.Millisecond {
		t.Errorf("missed deadline by %v", res.MissedBy)
	}
}

func TestSequentialChunksOnSameConnections(t *testing.T) {
	_, _, f := rig(t, 16, 16)
	for i := 0; i < 3; i++ {
		res, err := f.FetchChunk(i, 0, 2*time.Second)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !res.Verified || res.PrimaryBytes+res.SecondaryBytes != res.Size {
			t.Fatalf("chunk %d bad result: %+v", i, res)
		}
	}
}

func TestServerRejectsBadPaths(t *testing.T) {
	video := dash.BigBuckBunny()
	s, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := NewFetcher(video, s.Addr(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Out-of-range chunk index panics at the video layer (caller bug).
	defer func() {
		if recover() == nil {
			t.Error("out-of-range chunk did not panic")
		}
	}()
	f.FetchChunk(10_000, 0, time.Second)
}

func TestNewFetcherErrors(t *testing.T) {
	video := dash.BigBuckBunny()
	if _, err := NewFetcher(video, "127.0.0.1:1", "127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
	if _, err := NewFetcher(nil, "x", "y"); err == nil {
		t.Error("nil video accepted")
	}
}

func TestNewChunkServerValidation(t *testing.T) {
	if _, err := NewChunkServer(nil, 1); err == nil {
		t.Error("nil video accepted")
	}
}

func TestServerRejectsBadRange(t *testing.T) {
	// An inverted range gets a 416, and the fetcher surfaces it as an
	// unexpected-status error rather than hanging. The request is the
	// fetcher's one-shot lone range request, as a hedge sends it.
	video := dash.BigBuckBunny()
	eachFront(t, video, 0, func(t *testing.T, s *front) {
		f, err := NewFetcher(video, s.Addr(), s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.hedgeFetch(f.paths[0].set.current(), f.Retry.withDefaults(), 0, 0, 500, 100, nil); err == nil {
			t.Error("inverted range accepted")
		}
	})
}

func TestFetchManifest(t *testing.T) {
	video := dash.BigBuckBunny()
	s, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, sizes, err := FetchManifest(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks != video.NumChunks || len(got.Levels) != len(video.Levels) {
		t.Fatalf("reconstructed video mismatch: %+v", got)
	}
	if got.ChunkDuration != video.ChunkDuration {
		t.Errorf("chunk duration %v", got.ChunkDuration)
	}
	// Manifest sizes must match the server's actual chunk sizes.
	for lvl := range video.Levels {
		for c := 0; c < video.NumChunks; c += 37 {
			if sizes[lvl][c] != video.ChunkSize(c, lvl) {
				t.Fatalf("size mismatch at level %d chunk %d", lvl, c)
			}
		}
	}
	if _, _, err := FetchManifest("127.0.0.1:1"); err == nil {
		t.Error("dead server accepted")
	}
}

func TestManifestThenChunksOnSameServer(t *testing.T) {
	// Full bootstrap: learn the asset from the manifest, then fetch a
	// chunk with the sizes it declared.
	video := dash.BigBuckBunny()
	eachFront(t, video, 16, func(t *testing.T, s *front) {
		remote, sizes, err := FetchManifest(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFetcher(video, s.Addr(), s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		res, err := f.FetchChunk(3, 1, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != sizes[1][3] {
			t.Errorf("fetched size %d != manifest size %d", res.Size, sizes[1][3])
		}
		if !res.Verified {
			t.Error("verification failed")
		}
		_ = remote
	})
}
