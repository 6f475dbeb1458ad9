package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasic(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.P(1) != 0 || c.Quantile(0.5) != 0 || c.Points(5) != nil {
		t.Fatal("empty CDF should return zeros")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.5); q != 30 {
		t.Fatalf("Quantile(0.5) = %v, want 30", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Fatalf("Quantile(1) = %v, want 50", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Fatalf("Quantile(0) = %v, want 10", q)
	}
}

func TestCDFWeighted(t *testing.T) {
	c := &CDF{}
	c.AddWeighted(1, 1)
	c.AddWeighted(100, 9)
	if p := c.P(1); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("weighted P(1) = %v, want 0.1", p)
	}
	if q := c.Quantile(0.5); q != 100 {
		t.Fatalf("weighted Quantile(0.5) = %v, want 100", q)
	}
}

func TestCDFDuplicates(t *testing.T) {
	c := NewCDF([]float64{5, 5, 5, 10})
	if p := c.P(5); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("P(5) with ties = %v, want 0.75", p)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	c := NewCDF([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("last CDF point should be 1, got %v", pts[len(pts)-1].Y)
	}
}

func TestCDFNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&CDF{}).AddWeighted(1, -1)
}

// NaN fails `w < 0`, so the guards test for it apart: a NaN weight or
// a NaN sample panics like a negative weight, in CDF, QuantileSketch
// and StreamCDF on both sides of its cap.
func TestNaNSamplePanics(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		add  func()
	}{
		{"CDF weight", func() { (&CDF{}).AddWeighted(1, nan) }},
		{"CDF sample", func() { (&CDF{}).Add(nan) }},
		{"sketch weight", func() { NewQuantileSketch(0).Add(1, nan) }},
		{"sketch sample", func() { NewQuantileSketch(0).Add(nan, 1) }},
		{"sketch negative weight", func() { NewQuantileSketch(0).Add(1, -1) }},
		{"StreamCDF exact", func() { NewStreamCDF(4).AddWeighted(1, nan) }},
		{"StreamCDF sketched", func() {
			sc := NewStreamCDF(4)
			for i := 0; i < 8; i++ {
				sc.Add(float64(i))
			}
			sc.Add(nan)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.add()
		})
	}
}

// Property: P is monotone nondecreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = float64(i)
			}
		}
		c := NewCDF(raw)
		if a > b {
			a, b = b, a
		}
		pa, pb := c.P(a), c.P(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and P are approximately inverse on sample points.
func TestCDFQuantileInverseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i := range raw {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			xs[i] = v
		}
		c := NewCDF(xs)
		sort.Float64s(xs)
		for _, q := range []float64{0.1, 0.5, 0.9, 1} {
			x := c.Quantile(q)
			if c.P(x) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTSVRendering(t *testing.T) {
	s := TSV([]Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}})
	if s != "1\t0.5\n2\t1\n" {
		t.Fatalf("TSV = %q", s)
	}
	if TSV(nil) != "" {
		t.Fatal("empty TSV should be empty")
	}
}

func TestCDFPointsRequestMoreThanSamples(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	pts := c.Points(10)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want clamped to 2", len(pts))
	}
}
