package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHoltWintersConstantSeries(t *testing.T) {
	h := NewDefaultHoltWinters()
	for i := 0; i < 50; i++ {
		h.Observe(4.0)
	}
	if got := h.Predict(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("constant series forecast = %v, want 4.0", got)
	}
}

func TestHoltWintersTracksLinearTrend(t *testing.T) {
	h := NewDefaultHoltWinters()
	// x_t = 10 + 2t: HW with trend should converge to forecasting the
	// next point, which EWMA (trendless) systematically lags.
	for i := 0; i < 200; i++ {
		h.Observe(10 + 2*float64(i))
	}
	next := 10 + 2*200.0
	if got := h.Predict(); math.Abs(got-next) > 2.0 {
		t.Errorf("trend forecast = %v, want ≈%v", got, next)
	}
}

func TestHoltWintersBeatsEWMAOnTrend(t *testing.T) {
	h := NewDefaultHoltWinters()
	e := NewEWMA(0.5)
	var errH, errE float64
	for i := 0; i < 300; i++ {
		x := 5 + 0.5*float64(i)
		if i > 10 {
			errH += math.Abs(h.Predict() - x)
			errE += math.Abs(e.Predict() - x)
		}
		h.Observe(x)
		e.Observe(x)
	}
	if errH >= errE {
		t.Errorf("HW error %v should beat EWMA error %v on trending series", errH, errE)
	}
}

func TestHoltWintersNonNegative(t *testing.T) {
	h := NewDefaultHoltWinters()
	// Steep decline extrapolates negative; forecast must clamp at 0.
	for _, x := range []float64{100, 50, 10, 1, 0.1} {
		h.Observe(x)
	}
	if got := h.Predict(); got < 0 {
		t.Errorf("forecast = %v, must be >= 0", got)
	}
}

func TestHoltWintersNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewDefaultHoltWinters()
		for i := 0; i < 100; i++ {
			h.Observe(math.Abs(rng.NormFloat64()) * 10)
			if h.Predict() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHoltWintersEmptyAndReset(t *testing.T) {
	h := NewDefaultHoltWinters()
	if h.Predict() != 0 {
		t.Error("empty predictor should predict 0")
	}
	h.Observe(7)
	if h.Predict() != 7 {
		t.Errorf("single-sample forecast = %v, want 7", h.Predict())
	}
	if h.Samples() != 1 {
		t.Errorf("Samples = %d", h.Samples())
	}
	h.Reset()
	if h.Predict() != 0 || h.Samples() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestHoltWintersTwoSamples(t *testing.T) {
	h := NewDefaultHoltWinters()
	h.Observe(10)
	h.Observe(14)
	// After two samples level=14, trend=4, forecast 18.
	if got := h.Predict(); math.Abs(got-18) > 1e-9 {
		t.Errorf("two-sample forecast = %v, want 18", got)
	}
}

func TestNewHoltWintersPanicsOnBadConstants(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{0, 0.3}, {0.5, 0}, {1.5, 0.3}, {0.5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHoltWinters(%v, %v) did not panic", c.a, c.b)
				}
			}()
			NewHoltWinters(c.a, c.b)
		}()
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Predict() != 0 {
		t.Error("empty EWMA should predict 0")
	}
	e.Observe(10)
	if e.Predict() != 10 {
		t.Errorf("EWMA first sample = %v", e.Predict())
	}
	e.Observe(20)
	if got := e.Predict(); math.Abs(got-15) > 1e-9 {
		t.Errorf("EWMA = %v, want 15", got)
	}
	e.Reset()
	if e.Predict() != 0 {
		t.Error("Reset did not clear EWMA")
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEWMA(0) did not panic")
		}
	}()
	NewEWMA(0)
}

func TestLastSample(t *testing.T) {
	l := NewLastSample()
	if l.Predict() != 0 {
		t.Error("empty LastSample should predict 0")
	}
	l.Observe(3)
	l.Observe(9)
	if l.Predict() != 9 {
		t.Errorf("LastSample = %v, want 9", l.Predict())
	}
	l.Reset()
	if l.Predict() != 0 {
		t.Error("Reset did not clear LastSample")
	}
}

func TestPredictorInterfaceCompliance(t *testing.T) {
	for _, p := range []Predictor{NewDefaultHoltWinters(), NewEWMA(0.3), NewLastSample()} {
		p.Observe(5)
		if p.Predict() <= 0 {
			t.Errorf("%T.Predict() = %v after observing 5", p, p.Predict())
		}
	}
}

func TestHoltWintersBoundedOnBoundedInput(t *testing.T) {
	// For inputs in [lo, hi], the forecast should stay within a modest
	// margin of the range (trend extrapolation can overshoot slightly).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewDefaultHoltWinters()
		lo, hi := 2.0, 6.0
		for i := 0; i < 200; i++ {
			h.Observe(lo + rng.Float64()*(hi-lo))
			p := h.Predict()
			if p < 0 || p > hi*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// hwSample is a level shift plus a deterministic sawtooth, exercising
// both the level and the trend term.
func hwSample(i int) float64 {
	base := 20e6
	if i%97 > 48 {
		base = 8e6
	}
	return base + float64(i%13)*250e3
}

// TestHoltWintersPinnedAndAllocFree: 500 samples of hwSample give a
// forecast and a one-step mean absolute error pinned to the last bit, and
// no update allocates.
func TestHoltWintersPinnedAndAllocFree(t *testing.T) {
	const wantForecast, wantMAE = 20711782.106538966, 1196480.4352405951
	h := NewDefaultHoltWinters()
	var absErr float64
	for i := 0; i < 500; i++ {
		if i > 0 {
			absErr += math.Abs(h.Predict() - hwSample(i))
		}
		h.Observe(hwSample(i))
	}
	if got, mae := h.Predict(), absErr/499; got != wantForecast || mae != wantMAE {
		t.Errorf("forecast %v, MAE %v; want %v and %v", got, mae, wantForecast, wantMAE)
	}
	// One run is 64,000 updates: no allocation at all, so no byte either.
	i := 0
	if n := testing.AllocsPerRun(1, func() {
		for k := 0; k < 64_000; k++ {
			h.Observe(hwSample(i))
			i++
		}
		_ = h.Predict()
	}); n != 0 {
		t.Errorf("64,000 Holt-Winters updates allocated %v times, want 0", n)
	}
}
