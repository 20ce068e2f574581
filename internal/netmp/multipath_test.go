package netmp

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// multiRig starts one server per path and an N-path Fetcher across them
// (rates[0] is the preferred path, the rest secondaries in cost order).
// Full-size (Big Buck Bunny) chunks keep the workload well above the
// shaper's burst allowance.
func multiRig(t *testing.T, rates ...float64) (*Fetcher, []*ChunkServer) {
	t.Helper()
	v := dash.BigBuckBunny()
	var servers []*ChunkServer
	var addrs []string
	for _, r := range rates {
		s, err := NewChunkServer(v, r)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	f, err := NewFetcher(v, addrs[0], addrs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return f, servers
}

// pathBytes snapshots each path's verified byte counter; per-secondary
// shares of one fetch are the deltas around it.
func pathBytes(f *Fetcher) []int64 {
	var out []int64
	for _, ps := range f.PathStats() {
		out = append(out, ps.Bytes)
	}
	return out
}

func TestNewFetcherValidation(t *testing.T) {
	v := dash.BigBuckBunny()
	if _, err := NewFetcherOrigins(v, BreakerPolicy{}); err == nil {
		t.Error("no paths accepted")
	}
	if _, err := NewFetcher(v, "127.0.0.1:1", "127.0.0.1:1"); err == nil {
		t.Error("dead primary accepted")
	}
}

func TestMultiFetchLooseDeadlineAllDark(t *testing.T) {
	f, servers := multiRig(t, 16, 16, 16)
	res, err := f.FetchChunk(0, 0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verification failed")
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
	if res.SecondaryBytes != 0 {
		t.Errorf("secondaries carried %d under a loose deadline", res.SecondaryBytes)
	}
	if servers[1].ServedBytes() != 0 || servers[2].ServedBytes() != 0 {
		t.Error("secondary servers served bytes")
	}
}

func TestMultiFetchPressureEngagesCheapFirst(t *testing.T) {
	// Starved primary, modest deadline: the cheap secondary must carry
	// clearly more than the expensive one.
	f, _ := multiRig(t, 2, 12, 12)
	before := pathBytes(f)
	res, err := f.FetchChunk(1, 2, 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verification failed")
	}
	if res.SecondaryBytes == 0 {
		t.Fatal("no secondary engaged under pressure")
	}
	after := pathBytes(f)
	cheap := after[1] - before[1]
	costly := after[2] - before[2]
	if cheap < costly {
		t.Errorf("cost order violated: cheap %d < costly %d", cheap, costly)
	}
	if cheap+costly != res.SecondaryBytes {
		t.Errorf("per-path secondary bytes %d+%d != result %d", cheap, costly, res.SecondaryBytes)
	}
	if res.PrimaryBytes+res.SecondaryBytes != res.Size {
		t.Errorf("bytes %d+%d != %d", res.PrimaryBytes, res.SecondaryBytes, res.Size)
	}
}

// N=1 is a plain supervised download: the chunk completes on the one
// path, under deadline pressure too, on the calling goroutine — the
// fetcher runs no goroutine of its own, no worker and no controller.
func TestSinglePathFetch(t *testing.T) {
	f, _ := multiRig(t, 8)
	if n := len(f.PathStats()); n != 1 {
		t.Fatalf("paths = %d, want 1", n)
	}
	spawned := make(chan int, 1)
	go func() {
		time.Sleep(60 * time.Millisecond) // mid-fetch: the chunk takes ~300ms at 8 Mbps
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		spawned <- strings.Count(stacks, "created by mpdash/internal/netmp.(*Fetcher)") +
			strings.Count(stacks, "created by mpdash/internal/netmp.NewFetcher")
	}()
	res, err := f.FetchChunk(0, 0, 50*time.Millisecond) // pressure from the start
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.PrimaryBytes != res.Size || res.SecondaryBytes != 0 {
		t.Errorf("single-path result: %+v", res)
	}
	if res.MissedBy == 0 {
		t.Error("a ~300ms chunk met a 50ms deadline: the rig is not under pressure")
	}
	if n := <-spawned; n != 0 {
		t.Errorf("the fetcher runs %d goroutines mid-fetch, want 0", n)
	}
}
