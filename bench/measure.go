package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"mpdash/internal/stats"
)

// snapshot is the process-wide cost counters read at a window boundary.
// Client and servers share the process by design, so a delta between two
// snapshots is the whole system's cost for the work in between.
type snapshot struct {
	at         time.Time
	cpu        time.Duration // user + system, RUSAGE_SELF
	mallocs    uint64
	allocBytes uint64
	ctxSwitch  int64
	maxRSSKiB  int64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return snapshot{
		at:         time.Now(),
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		ctxSwitch:  ru.Nvcsw + ru.Nivcsw,
		maxRSSKiB:  ru.Maxrss,
	}
}

// cost is the difference between two snapshots.
type cost struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    float64
	allocBytes float64
	ctxSwitch  float64
}

func (s snapshot) since(prev snapshot) cost {
	return cost{
		wall:       s.at.Sub(prev.at),
		cpu:        s.cpu - prev.cpu,
		mallocs:    float64(s.mallocs - prev.mallocs),
		allocBytes: float64(s.allocBytes - prev.allocBytes),
		ctxSwitch:  float64(s.ctxSwitch - prev.ctxSwitch),
	}
}

func (c cost) cpuUS() float64 { return float64(c.cpu) / float64(time.Microsecond) }

// cpuPerChunk is CPU µs per delivered chunk.
func (c cost) cpuPerChunk(chunks int64) float64 {
	return c.cpuUS() / math.Max(float64(chunks), 1)
}

// perChunk writes the four cost metrics every workload's timed pass
// reports. CPU per chunk is not among them: on a shared host CPU time
// for the same work drifts by a quarter over minutes, so it is reported
// by the traced pass, where no bound hangs on it.
func (c cost) perChunk(v map[string]float64, chunks int64, end snapshot) {
	n := math.Max(float64(chunks), 1)
	v["chunks_per_s"] = float64(chunks) / c.wall.Seconds()
	v["allocs_per_chunk"] = c.mallocs / n
	v["alloc_kb_per_chunk"] = c.allocBytes / 1024 / n
	v["peak_rss_mb"] = float64(end.maxRSSKiB) / 1024
}

// pct is the interpolated percentile of xs (0 for an empty sample).
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// chunkMS writes the two chunk-time metrics: the median, and the tail —
// p95, or on a small sample the highest percentile that still has ten
// samples beyond it (p70 of sim-field's 33 locations), since a
// percentile resting on one or two samples is not a measurement.
func chunkMS(v map[string]float64, samples []float64) {
	v["chunk_ms_p50"] = pct(samples, 50)
	v["chunk_ms_tail"] = pct(samples, tailPercentile(len(samples)))
}

func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	return min(95, 100*(1-10/float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianSetup repeats build (which must tear down what it builds) and
// returns the median duration, first included: of five set-ups at least,
// and of as many as 300 ms have room for, so the median of a
// sub-millisecond set-up is as steady as that of a slow one. The 300 ms
// are by the wall clock: a build may take far longer than the duration
// it reports (the edge workloads' excludes the harness generating 164 MiB
// of bodies, sim-field's is bracketed by host readings).
func medianSetup(first time.Duration, build func() (time.Duration, error)) (float64, error) {
	ds := []float64{first.Seconds()}
	for start := time.Now(); len(ds) < 5 || (time.Since(start) < 300*time.Millisecond && len(ds) < 2001); {
		runtime.GC()
		d, err := build()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return pct(ds, 50), nil
}

// sampler polls runtime/metrics while a traced window runs.
type sampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	extra    func() float64 // optional gauge sampled alongside (peak kept)
	heapPeak float64
	gorPeak  float64
	extraMax float64
	lat0     *metrics.Float64Histogram
	gc0      float64
}

const (
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapLive   = "/gc/heap/live:bytes"
	mSchedLat   = "/sched/latencies:seconds"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func startSampler(extra func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), extra: extra}
	s.lat0 = readMetric(mSchedLat).Float64Histogram()
	s.gc0 = readMetric(mGCCPU).Float64()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.poll()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	s.gorPeak = math.Max(s.gorPeak, float64(readMetric(mGoroutines).Uint64()))
	s.heapPeak = math.Max(s.heapPeak, float64(readMetric(mHeapLive).Uint64()))
	if s.extra != nil {
		s.extraMax = math.Max(s.extraMax, s.extra())
	}
}

// finish stops sampling and writes the runtime.* metrics; c is the
// window's cost, against which GC CPU and context switches are set.
func (s *sampler) finish(v map[string]float64, c cost, chunks int64) {
	close(s.stop)
	s.wg.Wait()
	s.poll()
	v["runtime.heap_live_mb_peak"] = s.heapPeak / (1 << 20)
	v["runtime.goroutines_peak"] = s.gorPeak
	if cpu := c.cpu.Seconds(); cpu > 0 {
		v["runtime.gc_cpu_share"] = (readMetric(mGCCPU).Float64() - s.gc0) / cpu
	}
	v["runtime.sched_latency_us_p95"] = histDeltaQuantile(s.lat0, readMetric(mSchedLat).Float64Histogram(), 0.95) * 1e6
	v["os.ctx_switches_per_chunk"] = c.ctxSwitch / math.Max(float64(chunks), 1)
}

// histDeltaQuantile is the q-quantile (bucket upper bound) of the
// observations added to a cumulative runtime histogram between a and b.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range delta {
		if seen += n; seen >= want {
			if up := b.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// loopNS calls fn in equal batches for about budget and returns the
// median batch's ns per call and the allocations per call. The median:
// one preempted batch neither sets nor spoils the figure.
func loopNS(budget time.Duration, fn func()) (ns, allocs float64) {
	fn() // first-use work is not the steady state
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < budget/40 && n < 1<<24 {
		n *= 2
	}
	var perCall []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); len(perCall) < 5 || time.Since(start) < budget; {
		perCall = append(perCall, float64(batch(n))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(perCall)
	return perCall[len(perCall)/2], float64(ms1.Mallocs-ms0.Mallocs) / float64(n*len(perCall))
}
