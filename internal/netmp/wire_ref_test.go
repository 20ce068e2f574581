package netmp

// Reference implementations for the differential tests in wire_test.go:
// the request and response-head parsers as they stood before wire.go
// (ReadString, strings.Fields, fmt.Sscanf, strconv.ParseInt), bodies
// verbatim. They are the oracle; do not "fix" them.

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"mpdash/internal/dash"
)

func refReadChunkRequest(r *bufio.Reader, video *dash.Video) (index, level int, from, to int64, manifest, bad, ok bool) {
	line, err := r.ReadString('\n')
	if err != nil {
		return 0, 0, 0, 0, false, false, false
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) != 3 || parts[0] != "GET" {
		return 0, 0, 0, 0, false, false, false
	}
	isManifest := parts[1] == "/manifest.mpd"
	var lvlID, idx int
	if !isManifest {
		if _, err := fmt.Sscanf(parts[1], "/seg-l%d-c%d.m4s", &lvlID, &idx); err != nil {
			return 0, 0, 0, 0, false, false, false
		}
	}
	from, to = 0, -1
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return 0, 0, 0, 0, false, false, false
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if v, found := headerCut(h, "Range"); found {
			unit, spec, cut := strings.Cut(v, "=")
			if !cut || !strings.EqualFold(strings.TrimSpace(unit), "bytes") {
				bad = true
				continue
			}
			a, b, dashed := strings.Cut(spec, "-")
			if !dashed { // "bytes=100": no range at all
				bad = true
				continue
			}
			from, err = strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil {
				bad = true
				continue
			}
			if b = strings.TrimSpace(b); b != "" {
				if to, err = strconv.ParseInt(b, 10, 64); err != nil {
					bad = true
					continue
				}
			}
		}
	}
	if isManifest {
		return 0, 0, 0, 0, true, bad, true
	}
	lvl := lvlID - 1
	if lvl < 0 || lvl >= len(video.Levels) || idx < 0 || idx >= video.NumChunks {
		return 0, 0, 0, 0, false, false, false
	}
	return idx, lvl, from, to, false, bad, true
}

func (pc *pathConn) refReadHead(want string) (contentLength int64, cacheState string, err error) {
	status, err := pc.r.ReadString('\n')
	if err != nil {
		return 0, "", fmt.Errorf("netmp: %s status: %w", pc.name, err)
	}
	if !strings.Contains(status, want) {
		if strings.Contains(status, "503") {
			// Overload rejection: transient, and breaker fuel for a
			// failover to a less-loaded origin.
			return 0, "", fmt.Errorf("netmp: %s %w", pc.name, errServerBusy)
		}
		return 0, "", fmt.Errorf("netmp: %s %w %q", pc.name, errBadStatus, strings.TrimSpace(status))
	}
	contentLength = -1
	for {
		h, err := pc.r.ReadString('\n')
		if err != nil {
			return 0, "", fmt.Errorf("netmp: %s headers: %w", pc.name, err)
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if v, found := headerCut(h, "Content-Length"); found {
			contentLength, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, "", fmt.Errorf("netmp: %s content-length %q: %w", pc.name, v, err)
			}
		}
		if v, found := headerCut(h, "X-MPDash-Cache"); found {
			cacheState = strings.ToLower(v)
		}
	}
	if contentLength < 0 {
		return 0, "", fmt.Errorf("netmp: %s missing content length", pc.name)
	}
	return contentLength, cacheState, nil
}

// headerCut matches "Key: value" case-insensitively (RFC 9110 field
// names), returning the trimmed value.
func headerCut(line, key string) (string, bool) {
	if len(line) > len(key) && line[len(key)] == ':' && strings.EqualFold(line[:len(key)], key) {
		return strings.TrimSpace(line[len(key)+1:]), true
	}
	return "", false
}
