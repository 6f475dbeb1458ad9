package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("Min/Max of empty slice should be ±Inf")
	}
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("Summarize(nil) should be zero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if p := Percentile(xs, 50); p != 25 {
		t.Fatalf("P50 = %v, want 25", p)
	}
	if p := Percentile(xs, 0); p != 10 {
		t.Fatalf("P0 = %v, want 10", p)
	}
	if p := Percentile(xs, 100); p != 40 {
		t.Fatalf("P100 = %v, want 40", p)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.P50 != 50 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.P10 != 10 || s.P90 != 90 {
		t.Fatalf("P10/P90 = %v/%v, want 10/90", s.P10, s.P90)
	}
	if s.Total != 5050 {
		t.Fatalf("Total = %v, want 5050", s.Total)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			xs[i] = v
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %v, want 1", i, c)
		}
	}
	h.Add(-1)
	h.Add(10)
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Fatalf("under/overflow = %v/%v, want 1/1", h.Underflow, h.Overflow)
	}
	if h.Total() != 10 {
		t.Fatalf("Total = %v, want 10", h.Total())
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 4, 8)
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64() * 4)
	}
	w := 0.5 // bin width
	integral := 0.0
	for _, p := range h.Density() {
		integral += p.Y * w
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("density integral %v, want 1", integral)
	}
}

func TestLogHistogram(t *testing.T) {
	l := NewLogHistogram(0, 28, 28)
	l.AddBytes(math.Exp(5.5))
	l.AddBytes(math.Exp(5.2))
	l.AddBytes(math.Exp(20.1))
	l.AddBytes(0) // non-positive goes to underflow
	if l.H.Counts[5] != 2 {
		t.Fatalf("log bin 5 = %v, want 2", l.H.Counts[5])
	}
	if l.H.Counts[20] != 1 {
		t.Fatalf("log bin 20 = %v, want 1", l.H.Counts[20])
	}
	if l.H.Underflow != 1 {
		t.Fatalf("underflow = %v, want 1", l.H.Underflow)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v, want -1", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := Pearson(xs, flat); r != 0 {
		t.Fatalf("zero-variance correlation = %v, want 0", r)
	}
}

func TestLinFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b := LinFit(xs, ys)
	if math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Fatalf("LinFit = (%v, %v), want (1, 2)", a, b)
	}
}

func TestLogFit(t *testing.T) {
	// y = 2 + 3 ln x
	var xs, ys []float64
	for _, x := range []float64{1, 2, 4, 8, 16} {
		xs = append(xs, x)
		ys = append(ys, 2+3*math.Log(x))
	}
	a, b := LogFit(xs, ys)
	if math.Abs(a-2) > 1e-9 || math.Abs(b-3) > 1e-9 {
		t.Fatalf("LogFit = (%v, %v), want (2, 3)", a, b)
	}
	// Non-positive x values are skipped, not fatal.
	a2, b2 := LogFit([]float64{-1, 0, 1, 2, 4, 8, 16}, append([]float64{9, 9}, ys...))
	if math.Abs(a2-2) > 1e-9 || math.Abs(b2-3) > 1e-9 {
		t.Fatalf("LogFit with skips = (%v, %v), want (2, 3)", a2, b2)
	}
}
