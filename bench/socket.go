package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
	"mpdash/internal/stats"
)

// The three closed-loop socket workloads share one video: 256 chunks in
// three renditions of about 16 KiB, 128 KiB and 512 KiB (1, 8 and 32
// range requests of segSize), so the smallest message — where
// per-request cost dominates — and the largest are both in every run.
const (
	videoChunks = 256
	segSize     = 16 << 10
	videoName   = "bench-256"
)

var levelKiB = [...]float64{16, 128, 512}

func benchVideo() *dash.Video {
	v := &dash.Video{Name: videoName, ChunkDuration: 4 * time.Second, NumChunks: videoChunks, SizeSeed: 0xbe7c}
	for i, kib := range levelKiB {
		// Nominal chunk size = bitrate × duration.
		mbps := kib * 1024 * 8 / v.ChunkDuration.Seconds() / 1e6
		v.Levels = append(v.Levels, dash.Level{ID: i + 1, AvgBitrateMbps: mbps})
	}
	return v
}

func workingSet(v *dash.Video) int64 {
	var n int64
	for l := range v.Levels {
		for c := 0; c < v.NumChunks; c++ {
			n += v.ChunkSize(c, l)
		}
	}
	return n
}

// clients is the closed-loop client count: one Fetcher, and so two path
// sockets, each.
func clients() int { return min(runtime.NumCPU(), 4) }

// socketKind selects what stands between the clients and the origins.
type socketKind struct {
	name string
	edge bool
	// capShare is the cache capacity as a share of the working set.
	capShare float64
	// zipfS is the chunk-popularity exponent (0 = uniform).
	zipfS float64
}

// edge-churn's cache holds a quarter of the working set: nearly half the
// chunks need a fill, yet the median chunk is a hit and the tail a miss.
// (At an eighth, hits and misses are even and the median flips between
// the two paths from run to run.)
var socketKinds = map[string]socketKind{
	"origin-direct": {name: "origin-direct"},
	"edge-hot":      {name: "edge-hot", edge: true, capShare: 512.0 / 164.0, zipfS: 1.0},
	"edge-churn":    {name: "edge-churn", edge: true, capShare: 1.0 / 4, zipfS: 0.8},
}

// keyStream draws one client's chunk keys from the seed. Chunk rank is
// Zipf (or uniform); the level is uniform but drawn without replacement
// in threes, so every window of requests carries the same byte mix and
// two seeds differ in order, not in load.
type keyStream struct {
	rng  *rand.Rand
	zipf *stats.Zipf
	perm [3]int
	used int
}

func newKeyStream(seed int64, client int, zipfS float64) *keyStream {
	k := &keyStream{rng: rand.New(rand.NewSource(seed*1009 + int64(client))), used: 3}
	if zipfS > 0 {
		k.zipf = stats.NewZipf(zipfS, videoChunks)
	}
	return k
}

func (k *keyStream) next() (chunk, level int) {
	if k.used == len(k.perm) {
		for i, p := range k.rng.Perm(len(k.perm)) {
			k.perm[i] = p
		}
		k.used = 0
	}
	level = k.perm[k.used]
	k.used++
	if k.zipf != nil {
		return k.zipf.Draw(k.rng), level
	}
	return k.rng.Intn(videoChunks), level
}

// rig is the running system of one socket workload.
type rig struct {
	kind    socketKind
	video   *dash.Video
	origins []*netmp.ChunkServer // wifi, lte
	edges   []*netmp.EdgeServer  // wifi, lte (nil for origin-direct)
	store   *cache.Cache
	fetch   []*netmp.Fetcher
	// delivered counts verified chunks across clients, for the slicer.
	delivered atomic.Int64
	// generating is the time buildRig spent making chunk bodies: the
	// harness's own work, which set-up time leaves out.
	generating time.Duration
}

// buildRig is the workload's set-up: servers up, cache prefilled, every
// client's manifest fetched and both its paths dialled.
func buildRig(kind socketKind, rec *recorder, parent int64) (*rig, error) {
	r := &rig{kind: kind, video: benchVideo()}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	for range 2 {
		s, err := netmp.NewChunkServer(r.video, 0)
		if err != nil {
			return nil, err
		}
		r.origins = append(r.origins, s)
	}
	front := []string{r.origins[0].Addr(), r.origins[1].Addr()}
	if kind.edge {
		r.store = cache.New(cache.Config{CapacityBytes: int64(kind.capShare * float64(workingSet(r.video)))})
		// Least popular first, so what a small cache keeps is its head.
		for c := r.video.NumChunks - 1; c >= 0; c-- {
			for l := range r.video.Levels {
				t0 := time.Now()
				body := chunkBytes(r.video, c, l)
				r.generating += time.Since(t0)
				r.store.Put(cache.Key{Video: videoName, Level: l, Chunk: c}, body)
			}
		}
		for i, origin := range front {
			e, err := netmp.NewEdgeServer(r.video, videoName, []string{origin}, r.store, netmp.EdgePolicy{})
			if err != nil {
				return nil, err
			}
			r.edges = append(r.edges, e)
			front[i] = e.Addr()
		}
	}
	for i := 0; i < clients(); i++ {
		ref := "client" + strconv.Itoa(i)
		_, end := rec.begin("netmp.FetchManifest", parent, ref)
		v, sizes, err := netmp.FetchManifest(front[0])
		end()
		if err != nil {
			return nil, err
		}
		for l := range sizes {
			for c, n := range sizes[l] {
				if n != r.video.ChunkSize(c, l) {
					return nil, fmt.Errorf("manifest size of chunk %d level %d is %d, want %d", c, l, n, r.video.ChunkSize(c, l))
				}
			}
		}
		if v.NumChunks != r.video.NumChunks || len(v.Levels) != len(r.video.Levels) {
			return nil, fmt.Errorf("manifest describes %d chunks × %d levels", v.NumChunks, len(v.Levels))
		}
		_, end = rec.begin("netmp.NewFetcher", parent, ref)
		f, err := netmp.NewFetcher(r.video, front[0], front[1])
		end()
		if err != nil {
			return nil, err
		}
		f.SegmentSize = segSize
		r.fetch = append(r.fetch, f)
	}
	ok = true
	return r, nil
}

func chunkBytes(v *dash.Video, chunk, level int) []byte {
	b := make([]byte, v.ChunkSize(chunk, level))
	for i := range b {
		b[i] = netmp.ChunkBody(chunk, level, int64(i))
	}
	return b
}

func (r *rig) close() {
	for _, f := range r.fetch {
		f.Close()
	}
	for _, e := range r.edges {
		e.Close()
	}
	for _, s := range r.origins {
		s.Close()
	}
}

// frontBytes is the payload the tier the clients talk to has written.
func (r *rig) frontBytes() int64 {
	var n int64
	if r.kind.edge {
		for _, e := range r.edges {
			n += e.ServedBytes()
		}
		return n
	}
	for _, s := range r.origins {
		n += s.ServedBytes()
	}
	return n
}

func (r *rig) originConns() float64 {
	n := 0
	for _, s := range r.origins {
		n += s.CurrentConns()
	}
	return float64(n)
}

// tally is what the clients saw in one window.
type tally struct {
	attempted, delivered, failed int64
	onTime                       int64
	wifiBytes, lteBytes          int64
	levelSum                     int64
	retries, requeued            int64
	chunkMS                      []float64
	chunkReqs                    []float64 // range requests per delivered chunk, aligned with chunkMS
	byLevelMS                    [3][]float64
	problems                     []string
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.delivered += o.delivered
	t.failed += o.failed
	t.onTime += o.onTime
	t.wifiBytes += o.wifiBytes
	t.lteBytes += o.lteBytes
	t.levelSum += o.levelSum
	t.retries += o.retries
	t.requeued += o.requeued
	t.chunkMS = append(t.chunkMS, o.chunkMS...)
	t.chunkReqs = append(t.chunkReqs, o.chunkReqs...)
	for l := range t.byLevelMS {
		t.byLevelMS[l] = append(t.byLevelMS[l], o.byLevelMS[l]...)
	}
	t.problems = append(t.problems, o.problems...)
}

func (t *tally) fail(format string, a ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, a...))
	}
}

// drive runs every client in a closed loop for window: the next request
// leaves only when the previous one has returned. tracer, when set,
// opens one span trace per chunk the way Streamer does.
func (r *rig) drive(window time.Duration, keys []*keyStream, rec *recorder, parent int64, tracer *obs.Tracer) *tally {
	per := make([]tally, len(r.fetch))
	end := time.Now().Add(window)
	var wg sync.WaitGroup
	for i, f := range r.fetch {
		wg.Add(1)
		go func(i int, f *netmp.Fetcher) {
			defer wg.Done()
			t := &per[i]
			deadline := r.video.ChunkDuration
			for n := 0; time.Now().Before(end); n++ {
				chunk, level := keys[i].next()
				ct := tracer.StartTrace(i, n, level)
				ct.SetDeadline(deadline)
				f.SetTrace(ct)
				ref := ""
				if rec != nil { // the timed pass must not pay for the label
					ref = "c" + strconv.Itoa(chunk) + "l" + strconv.Itoa(level)
				}
				_, done := rec.begin("netmp.FetchChunk", parent, ref)
				t0 := time.Now()
				res, err := f.FetchChunk(chunk, level, deadline)
				d := time.Since(t0)
				done()
				f.SetTrace(nil)
				t.attempted++
				want := r.video.ChunkSize(chunk, level)
				switch {
				case err != nil:
					ct.Finish(obs.TraceFailed)
					t.fail("chunk %d level %d: %v", chunk, level, err)
					continue
				case !res.Verified || res.Size != want || res.PrimaryBytes+res.SecondaryBytes != want:
					ct.Finish(obs.TraceFailed)
					t.fail("chunk %d level %d: verified=%v, %d+%d bytes of %d", chunk, level,
						res.Verified, res.PrimaryBytes, res.SecondaryBytes, want)
					continue
				}
				ct.Finish(obs.TraceOK)
				t.delivered++
				r.delivered.Add(1)
				if res.MissedBy == 0 {
					t.onTime++
				}
				t.wifiBytes += res.PrimaryBytes
				t.lteBytes += res.SecondaryBytes
				t.levelSum += int64(level)
				t.chunkReqs = append(t.chunkReqs, float64((want+segSize-1)/segSize))
				t.retries += res.Retries
				t.requeued += res.Requeued
				t.chunkMS = append(t.chunkMS, ms(d))
				t.byLevelMS[level] = append(t.byLevelMS[level], ms(d))
			}
		}(i, f)
	}
	wg.Wait()
	var all tally
	for i := range per {
		all.merge(&per[i])
	}
	return &all
}

// windowSlices is how many equal slices a window's cost is read in.
const windowSlices = 12

// costSlice is one slice of a window: what it cost and what it delivered.
type costSlice struct {
	cost   cost
	chunks int64
}

// windowCost is a window's cost, whole and in slices.
type windowCost struct {
	total  cost
	end    snapshot
	slices []costSlice
}

// perChunk writes the cost metrics as the median over the slices: a
// process is at the mercy of whatever else the host does in a given
// second, and the median slice is not. (sim-field's slices are its
// locations, which differ in work: there the figure is the median
// location's.)
func (w windowCost) perChunk(v map[string]float64, chunks int64) {
	w.total.perChunk(v, chunks, w.end)
	per := map[string][]float64{}
	for _, s := range w.slices {
		if s.chunks == 0 {
			continue
		}
		sv := map[string]float64{}
		s.cost.perChunk(sv, s.chunks, w.end)
		for k, x := range sv {
			per[k] = append(per[k], x)
		}
	}
	for k, xs := range per {
		v[k] = pct(xs, 50)
	}

}

// window runs one measured closed-loop window and checks what can only
// be checked across it: byte conservation between the clients and the
// tier they talk to, and (edge-hot) that no request reached an origin.
func (r *rig) window(d time.Duration, keys []*keyStream, rec *recorder, parent int64, tracer *obs.Tracer) (*tally, windowCost, cache.Stats) {
	var cs0 cache.Stats
	if r.store != nil {
		cs0 = r.store.Stats()
	}
	served0 := r.frontBytes()
	before := takeSnapshot()

	var wc windowCost
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(d / windowSlices)
		defer tick.Stop()
		prev, prevChunks := before, r.delivered.Load()
		for len(wc.slices) < windowSlices {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			now, chunks := takeSnapshot(), r.delivered.Load()
			wc.slices = append(wc.slices, costSlice{cost: now.since(prev), chunks: chunks - prevChunks})
			prev, prevChunks = now, chunks
		}
	}()
	t := r.drive(d, keys, rec, parent, tracer)
	close(stop)
	wg.Wait()
	wc.end = takeSnapshot()
	wc.total = wc.end.since(before)

	if got, want := r.frontBytes()-served0, t.wifiBytes+t.lteBytes; t.failed == 0 && got != want {
		t.fail("tier wrote %d payload bytes, clients verified %d", got, want)
	}
	var delta cache.Stats
	if r.store != nil {
		cs := r.store.Stats()
		delta = cache.Stats{Hits: cs.Hits - cs0.Hits, Misses: cs.Misses - cs0.Misses, Evictions: cs.Evictions - cs0.Evictions,
			Collapsed: cs.Collapsed - cs0.Collapsed, Fills: cs.Fills - cs0.Fills, Entries: cs.Entries, Bytes: cs.Bytes}
		if r.kind.name == "edge-hot" && delta.Fills != 0 {
			t.fail("edge-hot window made %d origin fills, want 0", delta.Fills)
		}
	}
	return t, wc, delta
}

func newKeys(seed int64, kind socketKind) []*keyStream {
	keys := make([]*keyStream, clients())
	for i := range keys {
		keys[i] = newKeyStream(seed, i, kind.zipfS)
	}
	return keys
}

// timedSetup builds a rig and reports how long the program's part of
// that took. The bodies a cache is prefilled with are inputs the harness
// makes (164 MiB, a quarter of a second that follows the host's memory
// and would bury the few milliseconds the program's own set-up takes),
// so making them is not counted; putting them in the cache is.
func timedSetup(kind socketKind, rec *recorder, parent int64) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := buildRig(kind, rec, parent)
	if err != nil {
		return nil, 0, err
	}
	return r, time.Since(t0) - r.generating, nil
}

// qoe writes the delivery-quality metrics of a closed-loop tally.
func (t *tally) qoe(v map[string]float64) {
	n := float64(max(t.attempted, 1))
	v["deadline_met_share"] = float64(t.onTime) / n
	if b := t.wifiBytes + t.lteBytes; b > 0 {
		v["wifi_byte_share"] = float64(t.wifiBytes) / float64(b)
	}
	if t.delivered > 0 {
		v["avg_level"] = float64(t.levelSum) / float64(t.delivered)
	}
	chunkMS(v, t.chunkMS)
}

// runSocketTimed is the timed pass: telemetry off, warm-up, one window.
func runSocketTimed(kind socketKind, cfg runConfig) (*outcome, error) {
	r, first, err := timedSetup(kind, nil, 0)
	if err != nil {
		return nil, err
	}
	keys := newKeys(cfg.seed, kind)
	r.drive(cfg.warmup(), keys, nil, 0, nil)
	t, wc, _ := r.window(cfg.window, keys, nil, 0, nil)
	r.close()

	// Set-up is repeated after the window, so peak RSS above is that of
	// one set-up plus the window, not of the repeats.
	setup, err := medianSetup(first, func() (time.Duration, error) {
		r, d, err := timedSetup(kind, nil, 0)
		if err == nil {
			r.close()
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome(t.attempted, t.failed, t.problems)
	o.values["setup_s"] = setup
	wc.perChunk(o.values, t.delivered)
	t.qoe(o.values)
	o.notef("%d clients, closed loop, %v window: %d chunks (%d FetchChunk samples), %.1f MiB",
		clients(), cfg.window, t.delivered, len(t.chunkMS), float64(t.wifiBytes+t.lteBytes)/(1<<20))
	return o, nil
}
