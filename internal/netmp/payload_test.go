package netmp

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
)

// payloadVideo is the fixed asset the payload pin reads: three levels,
// chunks of 50–375 KB, so every pinned range lies inside every chunk.
func payloadVideo() *dash.Video {
	return &dash.Video{
		Name:          "payload",
		ChunkDuration: time.Second,
		NumChunks:     9,
		SizeSeed:      0xb0d1e5,
		Levels: []dash.Level{
			{ID: 1, AvgBitrateMbps: 0.5},
			{ID: 2, AvgBitrateMbps: 1},
			{ID: 3, AvgBitrateMbps: 2.5},
		},
	}
}

// payloadDigest is the SHA-256 of every body byte payloadDigestOf reads,
// recorded before the generator, the verifier or the write path were
// touched. The bytes on the wire are the interop contract between
// clients and servers of different builds: a change here is a protocol
// change, not a refactor.
const payloadDigest = "55589acac1a6ccc0b6d91db2dc950edc08c4daf62a068dc4066f285674ba893c"

// payloadDigestOf requests the first, middle and last chunk of every
// level from the server at addr — whole, [1, 16384], [16383, 40000] and
// the last byte alone, in that order on one connection — and returns the
// SHA-256 of the bodies read.
func payloadDigestOf(t *testing.T, video *dash.Video, addr string) string {
	t.Helper()
	pc, err := dialOrigins("pin", []string{addr}, BreakerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.conn.Close()
	h := sha256.New()
	body := make([]byte, 0, 1<<20)
	for level := range video.Levels {
		for _, index := range []int{0, video.NumChunks / 2, video.NumChunks - 1} {
			size := video.ChunkSize(index, level)
			for _, r := range [][2]int64{{0, size - 1}, {1, 16384}, {16383, 40000}, {size - 1, size - 1}} {
				pc.conn.SetDeadline(time.Now().Add(5 * time.Second))
				pc.conn.Write(AppendRangeRequest(nil, video.Levels[level].ID, index, r[0], r[1]))
				n, _, err := pc.readHead("206")
				if err != nil {
					t.Fatalf("chunk (%d, %d) bytes %d-%d: %v", index, level, r[0], r[1], err)
				}
				if want := r[1] - r[0] + 1; n != want {
					t.Fatalf("chunk (%d, %d) bytes %d-%d: length %d, want %d", index, level, r[0], r[1], n, want)
				}
				body = body[:n]
				if _, err := io.ReadFull(pc.r, body); err != nil {
					t.Fatalf("chunk (%d, %d) bytes %d-%d: %v", index, level, r[0], r[1], err)
				}
				h.Write(body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPayloadPinned pins the bytes on the wire: an origin generating
// them and an edge serving its own fills must both produce exactly the
// recorded digest, on each fill path.
func TestPayloadPinned(t *testing.T) {
	eachFillPath(t, func(t *testing.T) {
		video := payloadVideo()
		origin, err := NewChunkServer(video, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		edge, err := NewEdgeServer(video, video.Name, []string{origin.Addr()}, cache.New(cache.Config{}), EdgePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer edge.Close()

		if got := payloadDigestOf(t, video, origin.Addr()); got != payloadDigest {
			t.Errorf("origin payload digest %s, want %s", got, payloadDigest)
		}
		if got := payloadDigestOf(t, video, edge.Addr()); got != payloadDigest {
			t.Errorf("edge payload digest %s, want %s", got, payloadDigest)
		}
		if edge.OriginBytes() == 0 {
			t.Error("the edge served without filling from origin")
		}
	})
}
