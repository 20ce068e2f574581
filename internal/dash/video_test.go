package dash

import (
	"math"
	"testing"
	"time"
)

func TestCatalogMatchesTable3(t *testing.T) {
	want := map[string][]float64{
		"Big Buck Bunny":       {0.58, 1.01, 1.47, 2.41, 3.94},
		"Red Bull Playstreets": {0.50, 0.89, 1.50, 2.47, 3.99},
		"Tears of Steel":       {0.50, 0.81, 1.51, 2.42, 4.01},
		"Tears of Steel HD":    {1.51, 2.42, 4.01, 6.03, 10.0},
	}
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog has %d videos", len(cat))
	}
	for _, v := range cat {
		if err := v.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
		rates, ok := want[v.Name]
		if !ok {
			t.Errorf("unexpected video %q", v.Name)
			continue
		}
		if len(v.Levels) != len(rates) {
			t.Errorf("%s: %d levels", v.Name, len(v.Levels))
			continue
		}
		for i, r := range rates {
			if v.Levels[i].AvgBitrateMbps != r {
				t.Errorf("%s level %d = %v, want %v", v.Name, i+1, v.Levels[i].AvgBitrateMbps, r)
			}
			if v.Levels[i].ID != i+1 {
				t.Errorf("%s level ID = %d", v.Name, v.Levels[i].ID)
			}
		}
		if v.ChunkDuration != 4*time.Second || v.NumChunks != 150 {
			t.Errorf("%s: %v x %d chunks, want 4s x 150", v.Name, v.ChunkDuration, v.NumChunks)
		}
		if v.Duration() != 10*time.Minute {
			t.Errorf("%s duration = %v", v.Name, v.Duration())
		}
	}
	if v, err := Lookup("Tears of Steel"); err != nil || v.SizeSeed != TearsOfSteel().SizeSeed {
		t.Errorf("Lookup of a catalog name: %+v, %v", v, err)
	}
	if _, err := Lookup("tears of steel"); err == nil {
		t.Error("Lookup accepted a name that is not in the catalog")
	}
}

func TestValidateRejectsBadVideos(t *testing.T) {
	good := BigBuckBunny()
	bad := []*Video{
		nil,
		{Name: "x", ChunkDuration: 0, NumChunks: 1, Levels: good.Levels},
		{Name: "x", ChunkDuration: time.Second, NumChunks: 0, Levels: good.Levels},
		{Name: "x", ChunkDuration: time.Second, NumChunks: 1},
		{Name: "x", ChunkDuration: time.Second, NumChunks: 1,
			Levels: []Level{{ID: 1, AvgBitrateMbps: 2}, {ID: 2, AvgBitrateMbps: 1}}},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad video %d accepted", i)
		}
	}
}

func TestChunkSizeProperties(t *testing.T) {
	v := BigBuckBunny()
	for level := range v.Levels {
		nominal := float64(v.NominalChunkSize(level))
		var sum float64
		for i := 0; i < v.NumChunks; i++ {
			s := float64(v.ChunkSize(i, level))
			if s < nominal*(1-vbrSpread)-1 || s > nominal*(1+vbrSpread)+1 {
				t.Fatalf("level %d chunk %d size %v outside ±%v%% of %v", level, i, s, vbrSpread*100, nominal)
			}
			sum += s
		}
		avg := sum / float64(v.NumChunks)
		if math.Abs(avg-nominal) > nominal*0.05 {
			t.Errorf("level %d mean size %v deviates from nominal %v", level, avg, nominal)
		}
	}
	// Deterministic.
	if v.ChunkSize(7, 2) != BigBuckBunny().ChunkSize(7, 2) {
		t.Error("chunk sizes not deterministic")
	}
	// Higher level, bigger chunk (nominal dominates the ±20% VBR for
	// adjacent levels far enough apart — check top vs bottom).
	for i := 0; i < v.NumChunks; i++ {
		if v.ChunkSize(i, 4) <= v.ChunkSize(i, 0) {
			t.Fatalf("chunk %d: top level not larger than bottom", i)
		}
	}
}

func TestChunkSizePanics(t *testing.T) {
	v := BigBuckBunny()
	for _, c := range []struct{ idx, lvl int }{{-1, 0}, {150, 0}, {0, -1}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChunkSize(%d,%d) did not panic", c.idx, c.lvl)
				}
			}()
			v.ChunkSize(c.idx, c.lvl)
		}()
	}
}

func TestRateBasedDeadlineExample(t *testing.T) {
	// Paper §5.1: a 1 MB chunk at a 4.0 Mbps level has rate-based
	// deadline 1*8/4 = 2 s. Verify via NominalBps arithmetic.
	v := BigBuckBunny()
	lvl := 4 // 3.94 Mbps
	size := int64(1_000_000)
	d := time.Duration(float64(size*8) / (v.Levels[lvl].AvgBitrateMbps * 1e6) * float64(time.Second))
	if d < 1900*time.Millisecond || d > 2200*time.Millisecond {
		t.Errorf("rate-based deadline = %v, want ≈2s", d)
	}
}

func TestLevelForThroughput(t *testing.T) {
	v := BigBuckBunny()
	cases := []struct {
		bps  float64
		want int
	}{
		{0.3e6, -1},
		{0.58e6, 0},
		{1.2e6, 1},
		{3.0e6, 3},
		{4.5e6, 4},
		{100e6, 4},
	}
	for _, c := range cases {
		if got := v.LevelForThroughput(c.bps); got != c.want {
			t.Errorf("LevelForThroughput(%v) = %d, want %d", c.bps, got, c.want)
		}
	}
	if v.HighestLevel() != 4 {
		t.Errorf("HighestLevel = %d", v.HighestLevel())
	}
}

func TestWithChunkDuration(t *testing.T) {
	v := BigBuckBunny()
	for _, dur := range []time.Duration{6 * time.Second, 10 * time.Second} {
		w := v.WithChunkDuration(dur)
		if w.ChunkDuration != dur {
			t.Errorf("ChunkDuration = %v", w.ChunkDuration)
		}
		if w.Duration() > v.Duration() {
			t.Errorf("re-chunked video longer than original")
		}
		if err := w.Validate(); err != nil {
			t.Error(err)
		}
	}
	// Original untouched.
	if v.ChunkDuration != 4*time.Second {
		t.Error("WithChunkDuration mutated the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithChunkDuration(0) did not panic")
		}
	}()
	v.WithChunkDuration(0)
}
