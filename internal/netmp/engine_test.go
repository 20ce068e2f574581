package netmp

// The fetch engine's contracts: nothing sleeps out a wall-clock tick on a
// chunk's way through, and the secondary workers live exactly as long as
// their Fetcher — Close joins them whatever they are doing.

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// twoOrigins starts two origins for v shaped to mbps (0 = unshaped),
// closed at cleanup.
func twoOrigins(t *testing.T, v *dash.Video, mbps float64) (*ChunkServer, *ChunkServer) {
	t.Helper()
	a, err := NewChunkServer(v, mbps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewChunkServer(v, mbps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// A two-path fetcher against unshaped loopback origins fetches 50
// single-segment chunks under a loose deadline: the secondary stands by
// throughout, and the median chunk takes a fraction of the controller
// tick — no party sleeps the tick out before FetchChunk may return.
func TestFetchChunkHasNoTickFloor(t *testing.T) {
	v := &dash.Video{Name: "floor", ChunkDuration: time.Second, NumChunks: 8, SizeSeed: 3,
		Levels: []dash.Level{{ID: 1, AvgBitrateMbps: 0.125}}} // 16 KB chunks
	a, b := twoOrigins(t, v, 0)
	f, err := NewFetcher(v, a.Addr(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = 1 << 30

	took := make([]time.Duration, 50)
	for i := range took {
		res, err := f.FetchChunk(i%v.NumChunks, 0, 10*time.Second)
		if err != nil || !res.Verified {
			t.Fatalf("chunk %d: verified=%v err=%v", i, res != nil && res.Verified, err)
		}
		if res.SecondaryBytes != 0 {
			t.Fatalf("chunk %d: the standing-by secondary carried %d bytes", i, res.SecondaryBytes)
		}
		took[i] = res.Duration
	}
	slices.Sort(took)
	if p50 := took[len(took)/2]; p50 >= controllerTick/4 {
		t.Errorf("median FetchChunk %v, want < %v (p0 %v, max %v)", p50, controllerTick/4, took[0], took[len(took)-1])
	}
}

// The secondary workers' lifecycle: a Fetcher — frozen clock and all —
// completes chunks with its secondaries standing by on the wall-clock
// wheel; Close returns the goroutine count to its watermark; and a second
// Close is harmless.
func TestFetcherCloseJoinsWorkers(t *testing.T) {
	v := miniVideo()
	a, b := twoOrigins(t, v, 0)
	SharedWheel() // its driver outlives every fetcher
	watermark := runtime.NumGoroutine()

	f, err := NewFetcher(v, a.Addr(), b.Addr(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Now()
	f.SetClock(func() time.Time { return frozen })
	for c := 0; c < 4; c++ {
		res, err := f.FetchChunk(c, 2, time.Second)
		if err != nil || !res.Verified || res.PrimaryBytes != res.Size {
			t.Fatalf("chunk %d under a frozen clock: err=%v result=%+v", c, err, res)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f.Close() // again: the connections report being closed, nothing else happens
	if n := settleGoroutines(watermark, 5*time.Second); n > watermark {
		buf := make([]byte, 64<<10)
		t.Fatalf("goroutines %d > watermark %d after Close\n%s", n, watermark, buf[:runtime.Stack(buf, true)])
	}
}

// Close in the middle of a FetchChunk — with the secondary standing by,
// and with every path engaged mid-read — makes that FetchChunk return an
// error instead of hanging, and a FetchChunk after Close fails at once.
func TestFetcherCloseDuringFetch(t *testing.T) {
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"standing by", time.Minute}, {"engaged", time.Millisecond}} {
		t.Run(c.name, func(t *testing.T) {
			v := dash.BigBuckBunny()
			a, b := twoOrigins(t, v, 1) // a top-level chunk takes seconds
			f, err := NewFetcher(v, a.Addr(), b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := f.FetchChunk(0, 4, c.d)
				done <- err
			}()
			for end := time.Now().Add(5 * time.Second); a.ServedBytes() == 0 && time.Now().Before(end); {
				time.Sleep(time.Millisecond) // until the preferred path is mid-body
			}
			closed := make(chan struct{})
			go func() {
				f.Close()
				close(closed)
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errFetcherClosed) {
					t.Errorf("FetchChunk across Close: err = %v, want errFetcherClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("FetchChunk hung after Close")
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return")
			}
			start := time.Now()
			if _, err := f.FetchChunk(1, 0, time.Second); !errors.Is(err, errFetcherClosed) {
				t.Errorf("FetchChunk after Close: err = %v, want errFetcherClosed", err)
			}
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Errorf("FetchChunk after Close took %v", took)
			}
		})
	}
}
