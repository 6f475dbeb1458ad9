package stats

import "testing"

// benchSink keeps benchmarked results live.
var benchSink float64

// BenchmarkCDFSort measures the first query of a 400 k-sample CDF,
// which sorts it into canonical order: unit weights (a flow-count CDF,
// which has no weight column, so the radix kernel sorts x alone) and
// byte-count weights (Figure 9's bytes-weighted CDF). Building the CDF
// is untimed.
func BenchmarkCDFSort(b *testing.B) {
	const n = 400_000
	for _, tc := range []struct {
		name string
		w    func(*RNG) float64
	}{
		{"unit", func(*RNG) float64 { return 1 }},
		{"bytes", func(r *RNG) float64 { return float64(1 + r.IntN(1<<26)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := NewRNG(1)
			xs, ws := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64() * 100
				ws[i] = tc.w(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := &CDF{}
				c.Grow(n)
				for j := range xs {
					c.AddWeighted(xs[j], ws[j])
				}
				b.StartTimer()
				benchSink = c.TotalWeight()
			}
		})
	}
}

// BenchmarkCDFAdd measures appending 400 k samples to an empty CDF,
// without Grow, as the analysis's whole-run CDFs are built: unit
// weights (a flow-count or inter-arrival CDF, which stores x alone) and
// byte-count weights (Figure 9's bytes-weighted CDF, which stores a
// weight column too). B/op is the append growth.
func BenchmarkCDFAdd(b *testing.B) {
	const n = 400_000
	for _, tc := range []struct {
		name string
		w    func(*RNG) float64
	}{
		{"unit", func(*RNG) float64 { return 1 }},
		{"bytes", func(r *RNG) float64 { return float64(1 + r.IntN(1<<26)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := NewRNG(1)
			xs, ws := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64() * 100
				ws[i] = tc.w(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &CDF{}
				for j := range xs {
					c.AddWeighted(xs[j], ws[j])
				}
				benchSink = float64(c.N())
			}
		})
	}
}

// BenchmarkStreamCDFSketch measures a whole-run StreamCDF that crosses
// DefaultCDFSampleCap: 2²⁰ unit-weight samples, of which the second
// half go to the sketch after the first half converts, then one query.
func BenchmarkStreamCDFSketch(b *testing.B) {
	const n = 1 << 20
	rng := NewRNG(2)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewStreamCDF(0)
		for _, x := range xs {
			sc.Add(x)
		}
		benchSink = sc.Quantile(0.5)
	}
}
