package netmp

// The lent window: an attempt that writes two or more range requests
// reads their 206s through a 64 KiB bufio.Reader borrowed from
// windowPool, checking each body where the read put it, and gives it
// back once it holds nothing. Lone requests keep the path's own 4 KiB
// reader, whose head-line limit the window keeps too.

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"mpdash/internal/dash"
)

// windowWatch counts, through the test hooks, the windows lent and given
// back, those given back cleanly (no redial or Close dropping them) while
// still holding bytes, and the bodies read into a segment block. It must start before the test's servers and fetchers
// and outlive them, as its cleanup unhooks.
type windowWatch struct {
	mu                         sync.Mutex
	lent, back, holding, block int
}

func watchWindows(t *testing.T) *windowWatch {
	ww := &windowWatch{}
	testHookWindow = func(w *bufio.Reader, out, drop bool) {
		ww.mu.Lock()
		defer ww.mu.Unlock()
		if out {
			ww.lent++
			return
		}
		ww.back++
		if !drop && w.Buffered() > 0 {
			ww.holding++
		}
	}
	testHookBlock = func() {
		ww.mu.Lock()
		ww.block++
		ww.mu.Unlock()
	}
	t.Cleanup(func() { testHookWindow, testHookBlock = nil, nil })
	return ww
}

// take returns the counts so far and zeroes them.
func (ww *windowWatch) take() (lent, back, holding, block int) {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	lent, back, holding, block = ww.lent, ww.back, ww.holding, ww.block
	ww.lent, ww.back, ww.holding, ww.block = 0, 0, 0, 0
	return
}

// onOwnReader fails t unless pc reads through its own 4 KiB reader.
func onOwnReader(t *testing.T, pc *pathConn) {
	t.Helper()
	if pc.r != pc.own || pc.r.Size() != 4<<10 {
		t.Errorf("path reads through a %d-byte reader (own: %v), want its own 4 KiB one", pc.r.Size(), pc.r == pc.own)
	}
}

// TestLentWindowAfterACleanRun: a warm 32-segment chunk over an unshaped
// origin is two runs of 16, each read through a lent window that goes
// back to the pool empty, every body checked in it: no segment block.
// The path is on its own reader again. Built with -tags mpdash_poison, a
// window given back before the last body read through it is checked
// holds poison there, and the retry this test forbids shows it.
func TestLentWindowAfterACleanRun(t *testing.T) {
	ww := watchWindows(t)
	v := dash.BigBuckBunny()
	seg, _ := runSegSize(v)
	s, err := NewChunkServer(v, 0)
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
	fetchMeasured(t, f, 10*time.Second)
	ww.take()
	res := fetchMeasured(t, f, 10*time.Second)
	checkComplete(t, res)
	if res.Retries != 0 {
		t.Fatalf("%d retries on a clean origin", res.Retries)
	}
	lent, back, holding, block := ww.take()
	if lent != 2 || back != 2 || holding != 0 {
		t.Errorf("%d windows lent, %d given back (%d holding bytes), want 2 and 2 (0)", lent, back, holding)
	}
	if block != 0 {
		t.Errorf("%d bodies read into a segment block, want every one checked in the window", block)
	}
	onOwnReader(t, f.paths[0])
}

// TestLentWindowResetMidRun: on TestRunResetRetriesOwedTogether's rig, a
// reset cuts the cold chunk's run of eight. Its window goes back at the
// redial, emptied, and the owed rest borrows a fresh one: runs of 2, 4,
// the cut 8, the owed 5 and 16 are five windows lent and five given back,
// none holding bytes. The retried run verifies, and so does the next
// chunk on the redialled connection.
func TestLentWindowResetMidRun(t *testing.T) {
	ww := watchWindows(t)
	v := dash.BigBuckBunny()
	seg, warm := runSegSize(v)
	ps := plannedServer(t, v, &FaultPlan{Script: map[int]FaultKind{warm + midRun: FaultReset}})
	f, err := NewFetcher(v, ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize, f.Retry = seg, fastRetry()
	warmUp(t, f)
	ww.take()
	res := fetchMeasured(t, f, 10*time.Second)
	checkComplete(t, res)
	if res.Redials != 1 {
		t.Errorf("redials %d, want the reset to cost one", res.Redials)
	}
	lent, back, holding, _ := ww.take()
	if lent != 5 || back != 5 || holding != 0 {
		t.Errorf("%d windows lent, %d given back (%d holding bytes), want 5 and 5 (0)", lent, back, holding)
	}
	onOwnReader(t, f.paths[0])
	res = fetchMeasured(t, f, 10*time.Second)
	checkComplete(t, res)
	if res.Retries != 0 {
		t.Errorf("%d retries on the chunk after the reset", res.Retries)
	}
}

// TestLentWindowNotForALoneSegment: a lone request borrows nothing. Each
// one-segment chunk is read through the path's own 4 KiB reader, the body
// past what the head's read brought straight into one segment block.
func TestLentWindowNotForALoneSegment(t *testing.T) {
	ww := watchWindows(t)
	v := dash.BigBuckBunny()
	s, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := NewFetcher(v, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize = 1 << 30
	for c := 0; c < 3; c++ {
		res, err := f.FetchChunk(c, 0, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkComplete(t, res)
	}
	if lent, _, _, block := ww.take(); lent != 0 || block != 3 {
		t.Errorf("three one-segment chunks: %d windows lent, %d segment blocks, want 0 and 3", lent, block)
	}
	onOwnReader(t, f.paths[0])
}

// TestLentWindowKeepsTheLineLimit: a 206 whose head carries a 5 KiB
// header line inside a pipelined run is a read fault, as it is on the
// path's own 4 KiB reader: charged once, redialled once, and the owed
// rest of the run verifies.
func TestLentWindowKeepsTheLineLimit(t *testing.T) {
	ww := watchWindows(t)
	v := dash.BigBuckBunny()
	seg, warm := runSegSize(v)
	pad := append(append([]byte("X-Pad: "), bytes.Repeat([]byte("a"), 5<<10)...), "\r\n"...)
	addr := fakeOrigin(t, v, func(c net.Conn, req int64, index, level int, from, to int64) error {
		n := to - from + 1
		head := appendRangeHead(nil, n, from, to, v.ChunkSize(index, level), "")
		if req == int64(warm+midRun) {
			head = append(head[:len(head)-2:len(head)-2], append(pad, "\r\n"...)...)
		}
		body := make([]byte, n)
		fillChunkBody(body, index, level, from)
		_, err := c.Write(append(head, body...))
		return err
	})
	f, err := NewFetcher(v, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SegmentSize, f.Retry = seg, fastRetry()
	warmUp(t, f)
	ww.take()
	res := fetchMeasured(t, f, 10*time.Second)
	checkComplete(t, res)
	if res.Retries != 1 || res.Redials != 1 {
		t.Errorf("retries %d, redials %d: want the 5 KiB line charged once and redialled once", res.Retries, res.Redials)
	}
	if lent, back, holding, _ := ww.take(); lent == 0 || lent != back || holding != 0 {
		t.Errorf("%d windows lent, %d given back (%d holding bytes)", lent, back, holding)
	}
	onOwnReader(t, f.paths[0])
}
