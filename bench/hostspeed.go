package main

import (
	"container/heap"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a two-vCPU guest on a shared host. For minutes at
// a time — some days for hours — allocation-heavy single-threaded work
// here takes up to twice as long, with nothing in the guest to show for
// it: no steal time, CPU time equal to wall time, a register-only loop
// barely slower. The neighbours' load on the shared cache and memory is
// the likely cause. No statistic inside one run survives that, and a run
// cannot outlast it.
//
// hostRef is the yardstick for it: a fixed piece of work of the same kind
// as sim-field's — a miniature of sim.Simulator's loop: pop the earliest
// event off a container/heap queue, allocate the next event, its closure,
// a buffer and a few small structs, push it — that also reads two random
// words per event from a 16 MiB table, standing for a heap that has
// outgrown the core's own cache. Read before and after each of
// sim-field's locations, it moved with them through every spell watched:
// over twenty minutes in which the study's own time per 33 locations
// spread 46 % (2.1× from best to worst), the study measured in yardsticks
// spread 6 % (1.25×). A plain memory read, a pointer chase, a copy and a
// spin loop all tracked worse, and each missed one kind of spell entirely.
//
// A computation timed between two readings is stated in reference seconds:
// its wall time divided by the readings' mean, a reading being the
// yardstick's time over hostRefNominal.
//
// The table is mapped outside the Go heap, so it neither moves the
// collector's pacing nor is scanned; what the yardstick allocates is
// garbage by the time it returns, and the queue it keeps is 2048 events.
type hostRef struct {
	mem   []byte
	table []uint64
	queue refQueue
	seq   uint64
	rng   uint64
	sink  int
}

const (
	hostRefTable  = 16 << 20
	hostRefQueue  = 2048
	hostRefEvents = 8000
	// hostRefNominal is one pass of the yardstick on the reference box
	// with quiet neighbours, so a reference second is a second there.
	hostRefNominal = 5 * time.Millisecond
)

type refEvent struct {
	at    int64
	seq   uint64
	fn    func()
	index int
}

type refSmall struct {
	a, b, c int64
	next    *refSmall
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *refQueue) Push(x any) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, hostRefTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostRef{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8), rng: 88172645463325252}
	for i := range h.table { // real pages, not the shared zero page
		h.table[i] = uint64(i)
	}
	for range hostRefQueue {
		h.seq++
		heap.Push(&h.queue, &refEvent{at: int64(h.rand() % 1e6), seq: h.seq})
	}
	return h, nil
}

func (h *hostRef) close() { _ = syscall.Munmap(h.mem) }

func (h *hostRef) rand() uint64 { // xorshift64
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// pass is the yardstick: hostRefEvents steps of the miniature simulator.
func (h *hostRef) pass() {
	n := 0
	var chain *refSmall
	for range hostRefEvents {
		e := heap.Pop(&h.queue).(*refEvent)
		h.seq++
		next := &refEvent{at: e.at + 1 + int64(h.rand()%1e6), seq: h.seq}
		buf := make([]byte, 64)
		for i := int64(0); i < 4; i++ {
			chain = &refSmall{a: i, next: chain}
			if i&1 == 1 {
				chain.next = nil
			}
		}
		n += int(h.table[h.rand()%uint64(len(h.table))]&1 + h.table[h.rand()%uint64(len(h.table))]&1)
		next.fn = func() { n += len(buf) }
		next.fn()
		heap.Push(&h.queue, next)
	}
	h.sink += n + int(chain.a)
}

// slowdown is one reading: the median of three passes over the nominal
// pass, 1 on the reference box with quiet neighbours. A nil hostRef reads
// 1, so wall time stays wall time.
func (h *hostRef) slowdown() float64 {
	if h == nil {
		return 1
	}
	var d [3]float64
	for i := range d {
		t0 := time.Now()
		h.pass()
		d[i] = float64(time.Since(t0))
	}
	sort.Float64s(d[:])
	return d[1] / float64(hostRefNominal)
}

// timed runs fn between two readings and returns its wall time in
// reference seconds.
func (h *hostRef) timed(fn func()) time.Duration {
	s0 := h.slowdown()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return time.Duration(float64(d) / ((s0 + h.slowdown()) / 2))
}
