package netmp

// The wire format, stated once: a request head
//
//	GET /seg-l<levelID>-c<chunk>.m4s HTTP/1.1\r\nHost: x\r\nRange: bytes=<from>-<to>\r\n\r\n
//
// (or GET /manifest.mpd), answered by a 206 head (appendRangeHead) or a
// constant 400/416/503, then the body. Heads are rendered by appending
// into the caller's scratch and parsed line by line out of the
// connection's bufio.Reader; a range request allocates on neither end.
//
// Slice lifetime: readLine's result, and everything cut from it, aliases
// the reader's buffer and is valid only until the next read on that
// reader. The parsers turn each line into integers or constant strings
// before they read the next; nothing retains one.

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"unicode"

	"mpdash/internal/dash"
)

const (
	head400 = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
	head416 = "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Length: 0\r\n\r\n"
	head503 = "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"
)

// Matched case-insensitively (RFC 9110).
var (
	hdrRange         = []byte("Range")
	hdrContentLength = []byte("Content-Length")
	hdrCache         = []byte("X-MPDash-Cache")
	unitBytes        = []byte("bytes")
	cacheHit         = []byte("hit")
)

// lineMax bounds a head line, its '\n' included: a default
// bufio.Reader's 4 KiB, also on a client's lent 64 KiB window.
const lineMax = 4 << 10

// readLine returns r's next line, trimmed. A line longer than lineMax is
// bufio.ErrBufferFull: a peer that never sends '\n' costs a bounded read
// (at most r's buffer), not a growing string.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == nil && len(line) > lineMax {
		err = bufio.ErrBufferFull
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSpace(line), nil
}

// headerValue matches "Key: value", returning the trimmed value.
func headerValue(line, key []byte) ([]byte, bool) {
	if len(line) > len(key) && line[len(key)] == ':' && bytes.EqualFold(line[:len(key)], key) {
		return bytes.TrimSpace(line[len(key)+1:]), true
	}
	return nil, false
}

// cutInt reads the optionally signed decimal integer at the front of b
// and returns what follows it. No digits is an error, and so is more than
// 18 of them (which leaves no int64 overflow to detect).
func cutInt(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i = 1
	}
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 {
		return 0, nil, false
	}
	if b[0] == '-' {
		v = -v
	}
	return v, b[i:], true
}

// parseInt is cutInt over all of b.
func parseInt(b []byte) (int64, bool) {
	v, rest, ok := cutInt(b)
	return v, ok && len(rest) == 0
}

// parseSegPath parses "/seg-l<levelID>-c<chunk>.m4s". Bytes after the
// suffix are ignored, as they were by the Sscanf this replaces.
func parseSegPath(p []byte) (lvlID, idx int64, ok bool) {
	p, ok1 := bytes.CutPrefix(p, []byte("/seg-l"))
	lvlID, p, ok2 := cutInt(p)
	p, ok3 := bytes.CutPrefix(p, []byte("-c"))
	idx, p, ok4 := cutInt(p)
	return lvlID, idx, ok1 && ok2 && ok3 && ok4 && bytes.HasPrefix(p, []byte(".m4s"))
}

// parseRange reads a Range value, "bytes=<from>-[<to>]". An open end
// keeps the to passed in: -1, or an earlier Range header's end.
func parseRange(v []byte, to int64) (from, end int64, ok bool) {
	eq := bytes.IndexByte(v, '=')
	if eq < 0 || !bytes.EqualFold(bytes.TrimSpace(v[:eq]), unitBytes) {
		return 0, 0, false
	}
	spec := v[eq+1:]
	hyphen := bytes.IndexByte(spec, '-')
	if hyphen < 0 { // "bytes=100": no range at all
		return 0, 0, false
	}
	from, ok = parseInt(bytes.TrimSpace(spec[:hyphen]))
	if last := bytes.TrimSpace(spec[hyphen+1:]); ok && len(last) != 0 {
		to, ok = parseInt(last)
	}
	return from, to, ok
}

// cutField returns b's first blank-delimited field and the remainder.
func cutField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// readChunkRequest parses one request head against video's catalog
// bounds, for the front's request loop. A syntactically malformed Range value sets
// bad=true so the caller answers 400 instead of silently serving from
// offset 0. ok=false means protocol error or EOF.
func readChunkRequest(r *bufio.Reader, video *dash.Video) (index, level int, from, to int64, manifest, bad, ok bool) {
	line, err := readLine(r)
	if err != nil {
		return 0, 0, 0, 0, false, false, false
	}
	method, line := cutField(line)
	path, line := cutField(line)
	proto, line := cutField(line)
	if len(proto) == 0 || len(bytes.TrimLeftFunc(line, unicode.IsSpace)) != 0 || string(method) != "GET" {
		return 0, 0, 0, 0, false, false, false
	}
	manifest = string(path) == "/manifest.mpd"
	var lvlID, idx int64
	var valid bool
	if !manifest {
		if lvlID, idx, valid = parseSegPath(path); !valid {
			return 0, 0, 0, 0, false, false, false
		}
	}
	from, to = 0, -1
	for {
		h, err := readLine(r)
		if err != nil {
			return 0, 0, 0, 0, false, false, false
		}
		if len(h) == 0 {
			break
		}
		if v, found := headerValue(h, hdrRange); found {
			if from, to, valid = parseRange(v, to); !valid {
				bad = true
			}
		}
	}
	if manifest {
		return 0, 0, 0, 0, true, bad, true
	}
	lvl := lvlID - 1
	if lvl < 0 || lvl >= int64(len(video.Levels)) || idx < 0 || idx >= int64(video.NumChunks) {
		return 0, 0, 0, 0, false, false, false
	}
	return int(idx), int(lvl), from, to, false, bad, true
}

// readHead reads one HTTP response head off the path's connection: the
// status line, which must carry the wanted code (a 503 is errServerBusy,
// any other mismatch errBadStatus), then the headers up to the blank
// line. It returns the Content-Length (required) and the X-MPDash-Cache
// state: "hit", "miss" (any other value) or "" (header absent or empty).
func (pc *pathConn) readHead(want string) (contentLength int64, cacheState string, err error) {
	status, err := readLine(pc.r)
	if err != nil {
		return 0, "", fmt.Errorf("netmp: %s status: %w", pc.name, err)
	}
	if !bytes.Contains(status, []byte(want)) {
		if bytes.Contains(status, []byte("503")) {
			// Overload rejection: transient, and breaker fuel for a
			// failover to a less-loaded origin.
			return 0, "", fmt.Errorf("netmp: %s %w", pc.name, errServerBusy)
		}
		return 0, "", fmt.Errorf("netmp: %s %w %q", pc.name, errBadStatus, status)
	}
	contentLength = -1
	for {
		h, err := readLine(pc.r)
		if err != nil {
			return 0, "", fmt.Errorf("netmp: %s headers: %w", pc.name, err)
		}
		if len(h) == 0 {
			break
		}
		if v, found := headerValue(h, hdrContentLength); found {
			var ok bool
			if contentLength, ok = parseInt(v); !ok {
				return 0, "", fmt.Errorf("netmp: %s content-length %q", pc.name, v)
			}
		}
		if v, found := headerValue(h, hdrCache); found {
			switch {
			case len(v) == 0:
				cacheState = ""
			case bytes.EqualFold(v, cacheHit):
				cacheState = "hit"
			default:
				cacheState = "miss"
			}
		}
	}
	if contentLength < 0 {
		return 0, "", fmt.Errorf("netmp: %s missing content length", pc.name)
	}
	return contentLength, cacheState, nil
}

// AppendRangeRequest appends the HTTP/1.1 range-request head for chunk
// (index, level lvlID) bytes [from, to] to dst and returns the extended
// slice — the allocation-free equivalent of
//
//	fmt.Sprintf("GET /seg-l%d-c%04d.m4s HTTP/1.1\r\nHost: x\r\nRange: bytes=%d-%d\r\n\r\n", ...)
//
// index must be non-negative (chunk indices always are). Exported so
// load generators outside the package can speak the protocol.
func AppendRangeRequest(dst []byte, lvlID, index int, from, to int64) []byte {
	dst = append(dst, "GET /seg-l"...)
	dst = strconv.AppendInt(dst, int64(lvlID), 10)
	dst = append(dst, "-c"...)
	dst = appendZeroPad(dst, int64(index), 4)
	dst = append(dst, ".m4s HTTP/1.1\r\nHost: x\r\nRange: bytes="...)
	dst = strconv.AppendInt(dst, from, 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, to, 10)
	dst = append(dst, "\r\n\r\n"...)
	return dst
}

// appendZeroPad appends the non-negative integer v left-padded with
// zeros to at least width digits (the %0*d contract for v >= 0).
func appendZeroPad(dst []byte, v int64, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, v, 10)
}

// appendRangeHead appends the 206 head for n body bytes [from, to] of a
// size-byte chunk; a non-empty cacheState adds the edge's X-MPDash-Cache
// header.
func appendRangeHead(dst []byte, n, from, to, size int64, cacheState string) []byte {
	dst = append(dst, "HTTP/1.1 206 Partial Content\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, n, 10)
	dst = append(dst, "\r\nContent-Range: bytes "...)
	dst = strconv.AppendInt(dst, from, 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, to, 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, size, 10)
	if cacheState != "" {
		dst = append(dst, "\r\nX-MPDash-Cache: "...)
		dst = append(dst, cacheState...)
	}
	return append(dst, "\r\n\r\n"...)
}
