// Real sockets: the userspace dual-TCP chunk fetcher (internal/netmp) on
// loopback. Two rate-shaped HTTP servers stand in for the WiFi and LTE
// paths; the fetcher pulls ranges from the front on the preferred path and
// engages the secondary from the back only under deadline pressure — the
// MP-DASH scheduler without a kernel.
package main

import (
	"fmt"
	"log"
	"time"

	"mpdash"
	"mpdash/internal/abr"
	"mpdash/internal/netmp"
)

func main() {
	video := mpdash.BigBuckBunny()

	wifiSrv, err := netmp.NewChunkServer(video, 4.0) // "WiFi": 4 Mbps
	if err != nil {
		log.Fatal(err)
	}
	defer wifiSrv.Close()
	lteSrv, err := netmp.NewChunkServer(video, 12.0) // "LTE": 12 Mbps
	if err != nil {
		log.Fatal(err)
	}
	defer lteSrv.Close()

	f, err := netmp.NewFetcher(video, wifiSrv.Addr(), lteSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	fmt.Printf("wifi server %s (4 Mbps), lte server %s (12 Mbps)\n\n", wifiSrv.Addr(), lteSrv.Addr())

	fetch := func(level int, deadline time.Duration) {
		res, err := f.FetchChunk(0, level, deadline)
		if err != nil {
			log.Fatal(err)
		}
		status := "deadline met"
		if res.MissedBy > 0 {
			status = fmt.Sprintf("missed by %v", res.MissedBy.Round(time.Millisecond))
		}
		fmt.Printf("level %d (%.0f kB), D=%v: wifi %3.0f kB, lte %3.0f kB, %v, verified=%v (%s)\n",
			level+1, float64(res.Size)/1e3, deadline,
			float64(res.PrimaryBytes)/1e3, float64(res.SecondaryBytes)/1e3,
			res.Duration.Round(time.Millisecond), res.Verified, status)
	}

	fmt.Println("loose deadline — LTE stays dark:")
	fetch(2, 4*time.Second)
	fmt.Println("\ntight deadline — LTE pulls the tail of the chunk:")
	fetch(4, 2*time.Second)

	// A short real-time playback over the same sockets: the streaming
	// loop applies MP-DASH deadlines chunk by chunk. Scale the asset
	// down (500 ms chunks) so the demo runs in a few seconds.
	fmt.Println("\nreal-time playback (8 chunks of a scaled-down asset):")
	mini := video.WithChunkDuration(500 * time.Millisecond)
	wifiSrv2, err := netmp.NewChunkServer(mini, 4.0)
	if err != nil {
		log.Fatal(err)
	}
	defer wifiSrv2.Close()
	lteSrv2, err := netmp.NewChunkServer(mini, 12.0)
	if err != nil {
		log.Fatal(err)
	}
	defer lteSrv2.Close()
	f2, err := netmp.NewFetcher(mini, wifiSrv2.Addr(), lteSrv2.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer f2.Close()
	st := &netmp.Streamer{Fetcher: f2, ABR: abr.NewGPAC(), RateBased: true}
	res, err := st.Stream(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("played %d chunks in %v: wifi %.0f kB, lte %.0f kB, stalls %d, verified=%v\n",
		res.Chunks, res.Wall.Round(time.Millisecond),
		float64(res.PrimaryBytes)/1e3, float64(res.SecondaryBytes)/1e3,
		res.Stalls, res.AllVerified)

	// Fault survival: the WiFi server injects a scripted connection reset
	// and probabilistic corruption, then dies for good (redial blackhole)
	// partway into the session. The supervised fetcher retries, redials,
	// requeues segments to LTE, and finishes every chunk byte-verified in
	// degraded single-path mode.
	fmt.Println("\nfault survival — WiFi resets, corrupts, then dies mid-session:")
	plan := &netmp.FaultPlan{
		Seed:        7,
		CorruptProb: 0.15,
		Script:      map[int]netmp.FaultKind{2: netmp.FaultReset},
	}
	wifiSrv3, err := netmp.NewChunkServerWithFaults(mini, 4.0, plan)
	if err != nil {
		log.Fatal(err)
	}
	defer wifiSrv3.Close()
	lteSrv3, err := netmp.NewChunkServer(mini, 12.0)
	if err != nil {
		log.Fatal(err)
	}
	defer lteSrv3.Close()
	f3, err := netmp.NewFetcher(mini, wifiSrv3.Addr(), lteSrv3.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer f3.Close()
	f3.Retry = netmp.RetryPolicy{
		IOTimeout:   300 * time.Millisecond,
		BaseBackoff: 10 * time.Millisecond,
		MaxRedials:  3,
	}
	time.AfterFunc(1200*time.Millisecond, wifiSrv3.Crash)
	st3 := &netmp.Streamer{Fetcher: f3, ABR: abr.NewGPAC(), RateBased: true}
	res3, err := st3.Stream(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("played %d chunks, verified=%v, lost=%d\n", res3.Chunks, res3.AllVerified, res3.LostChunks)
	fmt.Printf("survived %d faults (retries %d, requeued %d), redials %d, degraded for %v\n",
		res3.FaultsSurvived, res3.Retries, res3.Requeued, res3.Redials,
		res3.DegradedTime.Round(time.Millisecond))
	fmt.Printf("server injected: %s\n", wifiSrv3.FaultStats())
	for _, ps := range f3.PathStats() {
		fmt.Printf("path %-9s state=%s bytes=%d\n", ps.Name, ps.State, ps.Bytes)
	}
}
