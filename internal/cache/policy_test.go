package cache

import (
	"math/rand"
	"testing"

	"mpdash/internal/stats"
)

// TestDemandAdmissionOnZipf: whole-chunk fetches, chunk drawn Zipf(0.8)
// over 256 chunks and rendition uniform over three (16, 128 and 512
// KiB), through a store a quarter of the working set. Recency alone
// fills on 0.48 of fetches; admitting by demand keeps the popular
// quarter and fills on at most 0.33.
func TestDemandAdmissionOnZipf(t *testing.T) {
	const (
		chunks  = 256
		warm    = 4000
		fetches = 20000
		maxFill = 0.33
	)
	levelBytes := [...]int{16 << 10, 128 << 10, 512 << 10}
	var working int
	for _, n := range levelBytes {
		working += chunks * n
	}
	c := New(Config{CapacityBytes: int64(working / 4)})
	bodies := make([][]byte, len(levelBytes))
	for l, n := range levelBytes {
		bodies[l] = make([]byte, n)
	}
	z := stats.NewZipf(0.8, chunks)
	rng := rand.New(rand.NewSource(1))
	fetch := func() {
		k := Key{Video: "zipf", Chunk: z.Draw(rng), Level: rng.Intn(len(levelBytes))}
		if _, _, err := c.Fetch(k, func() ([]byte, error) { return bodies[k.Level], nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		fetch()
	}
	st0 := c.Stats()
	for i := 0; i < fetches; i++ {
		fetch()
	}
	st := c.Stats()
	fills := float64(st.Fills-st0.Fills) / fetches
	t.Logf("%.3f fills per fetch; %d bytes resident (%d in the window) of %d", fills, st.Bytes, st.WindowBytes, working/4)
	if fills > maxFill {
		t.Errorf("%.3f fills per fetch, want at most %.2f", fills, maxFill)
	}
	if st.Bytes > int64(working/4) || st.WindowBytes > int64(working/4/16) {
		t.Errorf("%d bytes resident, %d of them in the window; capacity %d", st.Bytes, st.WindowBytes, working/4)
	}
}
