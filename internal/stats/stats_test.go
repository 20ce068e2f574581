package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 4, 4}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("HarmonicMean = %v, want 2", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HarmonicMean(nil) = %v, want 0", got)
	}
	// Non-positive samples are skipped.
	if got := HarmonicMean([]float64{0, -3, 2, 2}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("HarmonicMean with junk = %v, want 2", got)
	}
}

func TestHarmonicMeanAtMostArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			v := math.Abs(x)
			if v > 1e-6 && v < 1e9 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9*Mean(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("StdDev const = %v, want 0", got)
	}
	if got := StdDev([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("StdDev = %v, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {10, 14},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	// Out-of-range p is clamped.
	if got, _ := Percentile(xs, -5); got != 10 {
		t.Errorf("Percentile(-5) = %v, want 10", got)
	}
	if got, _ := Percentile(xs, 150); got != 50 {
		t.Errorf("Percentile(150) = %v, want 50", got)
	}
}

// NearestRank is the ceil(q·n)−1 convention: always an observed value,
// and the 95th percentile of 20 samples is the 19th, not the 20th.
func TestNearestRank(t *testing.T) {
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	s := make([]float64, 20)
	for i := range s {
		s[i] = float64(i + 1)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.5, 10}, {0.51, 11}, {0.95, 19}, {0.99, 20}, {1, 20}, {2, 20}, {-1, 1},
	}
	for _, c := range cases {
		if got := NearestRank(s, c.q); got != c.want {
			t.Errorf("NearestRank(1..20, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len = %d, want 3", len(pts))
	}
	wantV := []float64{1, 2, 3}
	wantF := []float64{1.0 / 3, 2.0 / 3, 1}
	for i, p := range pts {
		if p.Value != wantV[i] || !almostEqual(p.Fraction, wantF[i], 1e-12) {
			t.Errorf("point %d = %+v", i, p)
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		pts := CDF(clean)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].Fraction == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAtMost(xs, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("FractionAtMost = %v, want 0.5", got)
	}
	if got := FractionAtMost(nil, 2); got != 0 {
		t.Errorf("FractionAtMost(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if m, err := Min(xs); err != nil || m != -1 {
		t.Errorf("Min = %v, %v", m, err)
	}
	if m, err := Max(xs); err != nil || m != 7 {
		t.Errorf("Max = %v, %v", m, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v", err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}
