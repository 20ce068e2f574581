package netmp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
)

// ---- differential harness: wire.go against wire_ref_test.go ----

// lineLimit is bufio's default buffer size, the longest line (ending
// included) the ReadSlice scanner accepts.
const lineLimit = 4096

// hasLongLine reports whether any line of data exceeds lineLimit.
func hasLongLine(data []byte) bool {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return len(data) >= lineLimit
		}
		if i+1 > lineLimit {
			return true
		}
		data = data[i+1:]
	}
	return false
}

// hasLongInt reports whether data holds a run of more than 18 digits:
// the one place the parsers differ on purpose (the reference defers to
// ParseInt's overflow check, wire.go refuses the length).
func hasLongInt(data []byte) bool {
	run := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			run = 0
		} else if run++; run > 18 {
			return true
		}
	}
	return false
}

// overLong reports whether data is outside the differential: it holds a
// line or an integer the new parsers refuse by length alone. All such an
// input must do is not be accepted when the over-long line is its first.
func overLong(t *testing.T, data []byte, accepted bool) bool {
	t.Helper()
	if !hasLongLine(data) && !hasLongInt(data) {
		return false
	}
	if first, _, _ := bytes.Cut(data, []byte("\n")); len(first)+1 > lineLimit && accepted {
		t.Fatalf("first line of %d bytes accepted", len(first))
	}
	return true
}

type reqResult struct {
	index, level      int
	from, to          int64
	manifest, bad, ok bool
	rest              string // unread bytes after a parsed head
}

type reqParser func(*bufio.Reader, *dash.Video) (int, int, int64, int64, bool, bool, bool)

func parseReq(parse reqParser, data []byte, v *dash.Video) reqResult {
	r := bufio.NewReader(bytes.NewReader(data))
	var res reqResult
	res.index, res.level, res.from, res.to, res.manifest, res.bad, res.ok = parse(r, v)
	if res.bad { // from/to are unspecified once the Range value is bad
		res.from, res.to = 0, 0
	}
	if res.ok {
		rest, _ := io.ReadAll(r)
		res.rest = string(rest)
	}
	return res
}

// diffRequest runs both request parsers over data and fails on any
// difference.
func diffRequest(t *testing.T, data []byte) {
	t.Helper()
	v := dash.BigBuckBunny()
	got := parseReq(readChunkRequest, data, v)
	if overLong(t, data, got.ok) {
		return
	}
	if want := parseReq(refReadChunkRequest, data, v); got != want {
		t.Fatalf("request %q:\n got %+v\nwant %+v", data, got, want)
	}
}

type headResult struct {
	contentLength int64
	state         string
	ok            bool
	busy, refused bool // errServerBusy / errBadStatus
	rest          string
}

func parseHead(ref bool, want string, data []byte) headResult {
	pc := &pathConn{name: "t", r: bufio.NewReader(bytes.NewReader(data))}
	var res headResult
	var err error
	if ref {
		res.contentLength, res.state, err = pc.refReadHead(want)
		if res.state != "" && res.state != "hit" {
			res.state = "miss" // the reference returns the lower-cased value
		}
	} else {
		res.contentLength, res.state, err = pc.readHead(want)
	}
	res.ok = err == nil
	res.busy, res.refused = errors.Is(err, errServerBusy), errors.Is(err, errBadStatus)
	if res.ok {
		rest, _ := io.ReadAll(pc.r)
		res.rest = string(rest)
	}
	return res
}

// diffHead runs both response-head parsers over data. It skips U+0130,
// which ToLower maps to 'i' and simple case folding does not.
func diffHead(t *testing.T, want string, data []byte) {
	t.Helper()
	got := parseHead(false, want, data)
	if overLong(t, data, got.ok) {
		return
	}
	if bytes.Contains(data, []byte("\u0130")) {
		return
	}
	if ref := parseHead(true, want, data); got != ref {
		t.Fatalf("head %q (want %s):\n got %+v\nwant %+v", data, want, got, ref)
	}
}

// requestCases are request heads the two parsers must agree on: every
// case of the Range/400/416/case-insensitivity tests, plus framing and
// leniency corners.
var requestCases = []string{
	string(AppendRangeRequest(nil, 1, 0, 0, 16383)),
	string(AppendRangeRequest(nil, 5, 149, 1<<20, 1<<20+99)) + "GET next",
	"GET /seg-l1-c0000.m4s HTTP/1.1\nHost: x\nRange: bytes=0-99\n\n",          // LF only
	"  GET   /seg-l2-c0007.m4s\tHTTP/1.1  \r\n  Range:   bytes=1-2  \r\n\r\n", // blanks everywhere
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\n\r\n",                                  // no Range: whole chunk
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nrange: BYTES=0-99\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRANGE: bytes = 0 - 99 \r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=5-\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=-5\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: BYTES=0-0\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-5\r\nRange: bytes=7-\r\n\r\n", // duplicate, open end
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-5\r\nRange: bogus\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bogus\r\nRange: bytes=0-5\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nAccept: */*\r\nX-Range: bytes=9-9\r\nRange : bytes=9-9\r\nUser-Agent: t\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=abc-100\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-xyz\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=100\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: smoots=0-100\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange:\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=500-100\r\n\r\n", // inverted: parsed, 416 later
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=+5-+9\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0--5\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=1_0-20\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-999999999999999999\r\n\r\n", // 18 digits
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: byte\u017f=0-1\r\n\r\n",             // long s folds to s
	"GET /manifest.mpd HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /manifest.mpd HTTP/1.1\r\nRange: bogus\r\n\r\n",
	"GET /manifest.mpdx HTTP/1.1\r\n\r\n",
	"POST /seg-l1-c0000.m4s HTTP/1.1\r\n\r\n",
	"get /seg-l1-c0000.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l1-c0000.m4s\r\n\r\n",
	"GET /seg-l1-c0000.m4s HTTP/1.1 extra\r\n\r\n",
	"GET\u00a0/seg-l1-c0000.m4s\u2003HTTP/1.1\r\n\r\n", // Unicode blanks separate fields
	"GET /seg-l1-c0.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l+1-c+3.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l-1-c3.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l1-c-3.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l1-c0000.m4sTRAILING HTTP/1.1\r\n\r\n",
	"GET /seg-l1-c0000.mp4 HTTP/1.1\r\n\r\n",
	"GET /seg-l1-c0000 HTTP/1.1\r\n\r\n",
	"GET /seg-l1_0-c0000.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-lx-c0000.m4s HTTP/1.1\r\n\r\n",
	"GET /seg-l0-c0000.m4s HTTP/1.1\r\n\r\n",                 // level below the catalog
	"GET /seg-l99-c0000.m4s HTTP/1.1\r\n\r\n",                // level above it
	"GET /seg-l1-c99999.m4s HTTP/1.1\r\n\r\n",                // chunk past the end
	"GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-1\r\n", // EOF before the blank line
	"GET /seg-l1-c0000.m4s HTTP/1.1",                         // EOF inside the request line
	"\r\n\r\n",
	"",
}

func TestReadChunkRequestMatchesReference(t *testing.T) {
	for _, c := range requestCases {
		diffRequest(t, []byte(c))
	}
	// The deliberate difference: more than 18 digits is refused outright.
	got := parseReq(readChunkRequest, []byte("GET /seg-l1-c0000.m4s HTTP/1.1\r\nRange: bytes=0-1000000000000000000\r\n\r\n"), dash.BigBuckBunny())
	if !got.ok || !got.bad {
		t.Errorf("19-digit range end: %+v, want bad", got)
	}
}

// headCases are response heads the two parsers must agree on.
var headCases = []string{
	string(appendRangeHead(nil, 16384, 0, 16383, 524288, "")) + "body",
	string(appendRangeHead(nil, 1, 7, 7, 8, "hit")),
	string(appendRangeHead(nil, 1, 7, 7, 8, "miss")),
	"HTTP/1.1 206 Partial Content\nContent-Length: 5\n\nhello", // LF only
	"  HTTP/1.1 206 Partial Content \r\n  content-length:   12  \r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nCONTENT-LENGTH: 12\r\nx-mpdash-cache: HIT\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 12\r\nX-MPDash-Cache: Hit\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 12\r\nX-MPDash-Cache: stale\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 12\r\nX-MPDash-Cache:\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 12\r\nX-MPDash-Cache: hit\r\nX-MPDash-Cache:\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 12\r\nX-MPDash-Cache: miss\r\nX-MPDash-Cache: hit\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-1/2\r\n\r\n", // no Content-Length
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: abc\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length:\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: -5\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: +5\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length : 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Type: application/dash+xml\r\nContent-Length: 3\r\n\r\nmpd",
	head400, head416, head503,
	"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
	"HTTP/1.1 206503\r\nContent-Length: 1\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\nContent-Length: 1\r\n", // EOF before the blank line
	"HTTP/1.1 206 Partial Content",
	"\r\n",
	"",
}

func TestReadHeadMatchesReference(t *testing.T) {
	for _, c := range headCases {
		diffHead(t, "206", []byte(c))
		diffHead(t, "200", []byte(c))
	}
}

func FuzzReadChunkRequest(f *testing.F) {
	for _, c := range requestCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffRequest(t, data) })
}

func FuzzReadHead(f *testing.F) {
	for _, c := range headCases {
		f.Add([]byte(c), false)
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nmpd"), true)
	f.Fuzz(func(t *testing.T, data []byte, manifest bool) {
		want := "206"
		if manifest {
			want = "200"
		}
		diffHead(t, want, data)
	})
}

// AppendRangeRequest must render byte-for-byte what the fmt.Sprintf it
// replaced produced, across padding widths and range boundaries.
func TestAppendRangeRequestMatchesSprintf(t *testing.T) {
	cases := []struct {
		lvlID, index int
		from, to     int64
	}{
		{0, 0, 0, 0},
		{1, 7, 0, 16383},
		{3, 42, 16384, 32767},
		{12, 999, 98304, 131071},
		{5, 1000, 0, 1},
		{7, 12345, 1 << 30, 1<<30 + 16383},
	}
	for _, c := range cases {
		want := fmt.Sprintf("GET /seg-l%d-c%04d.m4s HTTP/1.1\r\nHost: x\r\nRange: bytes=%d-%d\r\n\r\n",
			c.lvlID, c.index, c.from, c.to)
		got := string(AppendRangeRequest(nil, c.lvlID, c.index, c.from, c.to))
		if got != want {
			t.Errorf("AppendRangeRequest(%d,%d,%d,%d):\n got %q\nwant %q",
				c.lvlID, c.index, c.from, c.to, got, want)
		}
	}
}

// The head writers must render byte-for-byte what the fmt.Fprintf calls
// they replaced produced.
func TestAppendRangeHeadMatchesFprintf(t *testing.T) {
	const origin206 = "HTTP/1.1 206 Partial Content\r\nContent-Length: %d\r\nContent-Range: bytes %d-%d/%d\r\n\r\n"
	const edge206 = "HTTP/1.1 206 Partial Content\r\nContent-Length: %d\r\nContent-Range: bytes %d-%d/%d\r\nX-MPDash-Cache: %s\r\n\r\n"
	for _, c := range []struct{ n, from, to, size int64 }{
		{1, 0, 0, 1},
		{16384, 0, 16383, 524288},
		{32768, 98304, 131071, 131072},
		{7, 999_999_999_993, 999_999_999_999, 1_000_000_000_000},
		{123456789012, 0, 123456789011, 123456789012},
	} {
		if got, want := string(appendRangeHead(nil, c.n, c.from, c.to, c.size, "")),
			fmt.Sprintf(origin206, c.n, c.from, c.to, c.size); got != want {
			t.Errorf("origin head %+v:\n got %q\nwant %q", c, got, want)
		}
		for _, state := range []string{"hit", "miss"} {
			if got, want := string(appendRangeHead(nil, c.n, c.from, c.to, c.size, state)),
				fmt.Sprintf(edge206, c.n, c.from, c.to, c.size, state); got != want {
				t.Errorf("edge head %+v %s:\n got %q\nwant %q", c, state, got, want)
			}
		}
	}
	for got, format := range map[string]string{
		head400: "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
		head416: "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Length: 0\r\n\r\n",
		head503: "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
	} {
		if want := fmt.Sprintf(format); got != want {
			t.Errorf("constant head:\n got %q\nwant %q", got, want)
		}
	}
}

// ---- the allocation gate, across real sockets ----

// wireVideo has chunks of about 19 16-KiB segments at its only level.
func wireVideo() *dash.Video {
	return &dash.Video{
		Name:          "wire",
		ChunkDuration: time.Second,
		NumChunks:     8,
		SizeSeed:      0x5eed,
		Levels:        []dash.Level{{ID: 1, AvgBitrateMbps: 2.5}},
	}
}

// mallocsPerChunk fetches chunks through f at the given segment size and
// returns the process-wide heap allocations per FetchChunk — client,
// server and runtime together.
func mallocsPerChunk(t *testing.T, f *Fetcher, segSize int64, chunks int) float64 {
	t.Helper()
	f.SegmentSize = segSize
	fetch := func(n int) {
		for i := 0; i < n; i++ {
			res, err := f.FetchChunk(i%f.Video.NumChunks, 0, 10*time.Second)
			if err != nil || !res.Verified {
				t.Fatalf("fetch %d: verified=%v err=%v", i, res != nil && res.Verified, err)
			}
		}
	}
	fetch(2 * f.Video.NumChunks) // warm pools, buffers and the ledger's shapes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fetch(chunks)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(chunks)
}

// TestRangeRequestAllocatesNothing is the zero-alloc contract of the wire
// path, measured where it matters: a FetchChunk costs the same number of
// allocations whether it is one range request, about nineteen of a
// 16 KiB block each or about seventy-seven of a quarter block, against an
// origin and against an edge serving hits — so a range request, client
// and server side together, costs none. FetchChunk itself costs at most
// two, on one path or with a secondary standing by: its result, and no
// goroutine, closure or timer per chunk.
func TestRangeRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc contract gated without -race")
	}
	v := wireVideo()
	origin, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	store := cache.New(cache.Config{})
	for c := 0; c < v.NumChunks; c++ {
		body := make([]byte, v.ChunkSize(c, 0))
		for i := range body {
			body[i] = ChunkBody(c, 0, int64(i))
		}
		store.Put(cache.Key{Video: "wire", Level: 0, Chunk: c}, body)
	}
	edge, err := NewEdgeServer(v, "wire", []string{origin.Addr()}, store, EdgePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	for _, target := range []struct {
		name  string
		paths []string
	}{
		{"origin", []string{origin.Addr()}},
		{"edge hit", []string{edge.Addr()}},
		{"origin, two paths", []string{origin.Addr(), origin.Addr()}},
	} {
		f, err := NewFetcher(v, target.paths[0], target.paths[1:]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range []int64{16 * 1024, 4 * 1024} {
			many := mallocsPerChunk(t, f, seg, 50)
			one := mallocsPerChunk(t, f, 1<<30, 50)
			t.Logf("%s: %.2f mallocs per chunk at %d B segments, %.2f at one segment", target.name, many, seg, one)
			if d := many - one; d > 1 || d < -1 {
				t.Errorf("%s: %.2f mallocs per chunk at %d B segments, %.2f at one: range requests allocate", target.name, many, seg, one)
			}
			if many > 2 || one > 2 {
				t.Errorf("%s: %.2f and %.2f mallocs per FetchChunk, want at most 2", target.name, many, one)
			}
		}
		f.Close()
	}
	if got := origin.ServedBytes(); edge.OriginBytes() != 0 || got == 0 {
		t.Errorf("edge pulled %d origin bytes (want 0: prefilled), origin served %d", edge.OriginBytes(), got)
	}
}

// TestSessionFetchPinned: a two-path session over two unshaped origins
// fetches 24 quarter-second chunks at the top level with a 2 s deadline.
// Every byte arrives and verifies, and at most a quarter of the chunks
// miss. (What a FetchChunk allocates, warm, TestRangeRequestAllocatesNothing
// holds.)
func TestSessionFetchPinned(t *testing.T) {
	const (
		chunks    = 24
		wantBytes = 1848956
		// Sums over the asset's first 16 chunks, as a wire-path sweep of
		// an origin and a prefilled edge made them: each tier fetched the
		// 16 four times in 4 KiB range requests, and read the 16 nine
		// times (a warm-up, four split passes, four one-request passes).
		wantSplitRanges, wantSweepBytes = 2480, 22165020
	)
	v := &dash.Video{
		Name:          "pinned",
		ChunkDuration: 250 * time.Millisecond,
		NumChunks:     chunks,
		SizeSeed:      0x5eed,
		Levels:        []dash.Level{{ID: 1, AvgBitrateMbps: 1.0}, {ID: 2, AvgBitrateMbps: 2.5}},
	}
	level := v.HighestLevel()
	var ranges, first16 int64
	for c := 0; c < 16; c++ {
		ranges += (v.ChunkSize(c, level) + 4095) / 4096
		first16 += v.ChunkSize(c, level)
	}
	if 2*4*ranges != wantSplitRanges || 2*9*first16 != wantSweepBytes {
		t.Errorf("first 16 chunks: %d range requests, %d bytes; want %d and %d",
			2*4*ranges, 2*9*first16, wantSplitRanges, wantSweepBytes)
	}

	wifi, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wifi.Close()
	lte, err := NewChunkServer(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lte.Close()
	f, err := NewFetcher(v, wifi.Addr(), lte.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var got, want int64
	misses, unverified := 0, 0
	for i := 0; i < chunks; i++ {
		want += v.ChunkSize(i, level)
		res, err := f.FetchChunk(i, level, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got += res.PrimaryBytes + res.SecondaryBytes
		if res.MissedBy > 0 {
			misses++
		}
		if !res.Verified {
			unverified++
		}
	}
	if got != wantBytes || want != wantBytes || unverified != 0 {
		t.Errorf("fetched %d B of %d (pinned %d), %d chunks unverified", got, want, wantBytes, unverified)
	}
	if rate := float64(misses) / chunks; rate > 0.25 {
		t.Errorf("deadline-miss rate %v, want at most 0.25", rate)
	}
}

// ---- hostile peer: a line that never ends ----

// A peer that streams a megabyte without a newline costs the server one
// bufio buffer: the connection is dropped at the 4 KiB mark, nothing
// accumulates, and other connections keep being served.
func TestOversizedLineClosesConnection(t *testing.T) {
	eachFront(t, dash.BigBuckBunny(), 0, func(t *testing.T, s *front) {
		// Warm a second connection first so its buffers are not in the delta.
		good, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer good.Close()
		goodR := bufio.NewReader(good)
		roundTrip := func() {
			t.Helper()
			good.SetDeadline(time.Now().Add(2 * time.Second))
			good.Write(AppendRangeRequest(nil, 1, 0, 0, 9))
			status, err := goodR.ReadString('\n')
			if err != nil || !strings.Contains(status, "206") {
				t.Fatalf("well-behaved connection: status %q err %v", status, err)
			}
			for h := status; strings.TrimSpace(h) != ""; {
				if h, err = goodR.ReadString('\n'); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := goodR.Discard(10); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip()

		junk := bytes.Repeat([]byte("a"), 1<<20)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, prefix := range []string{"", "GET /seg-l1-c0000.m4s HTTP/1.1\r\nX-Junk: "} {
			hostile, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			hostile.SetDeadline(time.Now().Add(5 * time.Second))
			// The writes may fail part-way once the server has hung up.
			io.WriteString(hostile, prefix)
			hostile.Write(junk)
			if n, err := io.Copy(io.Discard, hostile); n != 0 || (err != nil && !errors.Is(err, syscall.ECONNRESET)) {
				t.Errorf("hostile connection read %d bytes, err %v; want a bare close", n, err)
			}
			hostile.Close()
		}
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
			t.Errorf("heap grew %d bytes serving two 1 MiB lines", grew)
		}
		roundTrip()
	})
}
