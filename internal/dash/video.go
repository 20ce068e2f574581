// Package dash models the DASH video substrate: the encoding ladders of
// the paper's four test videos (Table 3), a VBR chunk-size model, the MPD
// manifest, and an event-driven video player with a playback buffer that
// any rate-adaptation algorithm can drive.
package dash

import (
	"fmt"
	"time"
)

// Level is one encoding bitrate rung of a video's ladder.
type Level struct {
	// ID is the 1-based quality level as the paper numbers them.
	ID int
	// AvgBitrateMbps is the nominal (average) encoding bitrate.
	AvgBitrateMbps float64
}

// Video describes one DASH asset: equal-duration chunks, each encoded at
// every ladder level.
type Video struct {
	Name string
	// ChunkDuration is the playout duration of every chunk (the paper's
	// experiments use 4 s, with 6 s and 10 s variants).
	ChunkDuration time.Duration
	// Levels is the encoding ladder in ascending bitrate order.
	Levels []Level
	// NumChunks is the total chunk count (150 for a 10-minute video at
	// 4-second chunks).
	NumChunks int
	// SizeSeed decorrelates the VBR size pattern between videos.
	SizeSeed uint64
}

// Validate checks structural invariants.
func (v *Video) Validate() error {
	if v == nil {
		return fmt.Errorf("dash: nil video")
	}
	if v.ChunkDuration <= 0 {
		return fmt.Errorf("dash: video %q chunk duration %v", v.Name, v.ChunkDuration)
	}
	if v.NumChunks <= 0 {
		return fmt.Errorf("dash: video %q has %d chunks", v.Name, v.NumChunks)
	}
	if len(v.Levels) == 0 {
		return fmt.Errorf("dash: video %q has no levels", v.Name)
	}
	prev := 0.0
	for i, l := range v.Levels {
		if l.AvgBitrateMbps <= prev {
			return fmt.Errorf("dash: video %q level %d not ascending", v.Name, i)
		}
		prev = l.AvgBitrateMbps
	}
	return nil
}

// Duration returns the total playout length.
func (v *Video) Duration() time.Duration {
	return time.Duration(v.NumChunks) * v.ChunkDuration
}

// vbrSpread is the ± fraction by which a chunk's size deviates from
// nominal (bitrate × duration): real DASH encodes are VBR within a rung.
const vbrSpread = 0.2

// ChunkSize returns the byte size of chunk index at ladder position
// level (0-based index into Levels). Sizes are deterministic: the same
// (video, chunk, level) always has the same size, the way a real encode
// does. It panics on out-of-range arguments — a rate adaptation algorithm
// asking for a nonexistent level is a bug, not a runtime condition.
func (v *Video) ChunkSize(index, level int) int64 {
	if index < 0 || index >= v.NumChunks {
		panic(fmt.Sprintf("dash: chunk index %d of %d", index, v.NumChunks))
	}
	if level < 0 || level >= len(v.Levels) {
		panic(fmt.Sprintf("dash: level %d of %d", level, len(v.Levels)))
	}
	nominal := v.Levels[level].AvgBitrateMbps * 1e6 / 8 * v.ChunkDuration.Seconds()
	// splitmix64 over (seed, index, level) → factor in [1-spread, 1+spread].
	h := splitmix64(v.SizeSeed ^ uint64(index)*0x9e3779b97f4a7c15 ^ uint64(level)<<32)
	u := float64(h>>11) / float64(1<<53) // [0,1)
	factor := 1 - vbrSpread + 2*vbrSpread*u
	return int64(nominal * factor)
}

// Chunk describes chunk index at ladder index level, sized by the VBR
// model.
func (v *Video) Chunk(index, level int) ChunkMeta {
	l := v.Levels[level]
	return ChunkMeta{Index: index, Level: level, LevelID: l.ID, Size: v.ChunkSize(index, level),
		Duration: v.ChunkDuration, NominalBps: l.AvgBitrateMbps * 1e6}
}

// NominalChunkSize returns bitrate × duration without VBR variation.
func (v *Video) NominalChunkSize(level int) int64 {
	if level < 0 || level >= len(v.Levels) {
		panic(fmt.Sprintf("dash: level %d of %d", level, len(v.Levels)))
	}
	return int64(v.Levels[level].AvgBitrateMbps * 1e6 / 8 * v.ChunkDuration.Seconds())
}

// HighestLevel returns the index of the top ladder rung.
func (v *Video) HighestLevel() int { return len(v.Levels) - 1 }

// LevelForThroughput returns the highest ladder index whose average
// bitrate does not exceed the given throughput (bits/s); -1 if even the
// lowest rung exceeds it.
func (v *Video) LevelForThroughput(bps float64) int {
	best := -1
	for i, l := range v.Levels {
		if l.AvgBitrateMbps*1e6 <= bps {
			best = i
		}
	}
	return best
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ladder builds a Video with the standard 10-minute / 4-second-chunk shape
// of the paper's experiments.
func ladder(name string, seed uint64, rates ...float64) *Video {
	v := &Video{
		Name:          name,
		ChunkDuration: 4 * time.Second,
		NumChunks:     150,
		SizeSeed:      seed,
	}
	for i, r := range rates {
		v.Levels = append(v.Levels, Level{ID: i + 1, AvgBitrateMbps: r})
	}
	return v
}

// The paper's four test videos (Table 3, from the Lederer et al. DASH
// dataset): average encoding bitrates in Mbps for quality levels 1–5.

// BigBuckBunny is the paper's primary test video.
func BigBuckBunny() *Video {
	return ladder("Big Buck Bunny", 0xb16, 0.58, 1.01, 1.47, 2.41, 3.94)
}

// RedBullPlaystreets is the second non-HD video.
func RedBullPlaystreets() *Video {
	return ladder("Red Bull Playstreets", 0x4ed, 0.50, 0.89, 1.50, 2.47, 3.99)
}

// TearsOfSteel is the third non-HD video.
func TearsOfSteel() *Video {
	return ladder("Tears of Steel", 0x7ea45, 0.50, 0.81, 1.51, 2.42, 4.01)
}

// TearsOfSteelHD is the HD variant used in §7.3.5 (top rung 10 Mbps).
func TearsOfSteelHD() *Video {
	return ladder("Tears of Steel HD", 0x7ea45d, 1.51, 2.42, 4.01, 6.03, 10.0)
}

// Catalog returns all four Table 3 videos.
func Catalog() []*Video {
	return []*Video{BigBuckBunny(), RedBullPlaystreets(), TearsOfSteel(), TearsOfSteelHD()}
}

// Lookup returns the Catalog video called name.
func Lookup(name string) (*Video, error) {
	for _, v := range Catalog() {
		if v.Name == name {
			return v, nil
		}
	}
	return nil, fmt.Errorf("unknown video %q", name)
}

// WithChunkDuration returns a copy of the video re-chunked to dur while
// preserving total playout length (the paper repeats experiments with 6 s
// and 10 s chunks).
func (v *Video) WithChunkDuration(dur time.Duration) *Video {
	if dur <= 0 {
		panic(fmt.Sprintf("dash: chunk duration %v", dur))
	}
	total := v.Duration()
	out := *v
	out.ChunkDuration = dur
	out.NumChunks = int(total / dur)
	if out.NumChunks == 0 {
		out.NumChunks = 1
	}
	out.Levels = append([]Level(nil), v.Levels...)
	return &out
}
