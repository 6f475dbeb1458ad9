package stats

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// This file is the always-weighted CDF that CDF replaced, the test
// oracle of its unit-weight store: refCDF appends a weight beside every
// sample, sorts with the weight column, and builds a cumulative slice in
// Points. TestCDFMatchesReference and FuzzCDFWeights pin CDF, StreamCDF
// and MergeCDF bit-identical to it, up to the sign of a zero.

// refCDF is CDF as it was before unit weights went unstored.
type refCDF struct {
	xs, ws []float64
	sorted bool
	totalW float64
}

func (c *refCDF) AddWeighted(x, w float64) {
	c.xs = append(c.xs, x)
	c.ws = append(c.ws, w)
	c.totalW += w
	c.sorted = false
}

func (c *refCDF) N() int { return len(c.xs) }

func (c *refCDF) TotalWeight() float64 {
	c.ensureSorted()
	return c.totalW
}

func (c *refCDF) ensureSorted() {
	if c.sorted {
		return
	}
	xs, ws := make([]float64, len(c.xs)), make([]float64, len(c.ws))
	sortSamples(xs, ws, c.xs, c.ws)
	totalW := 0.0
	for _, w := range ws {
		totalW += w
	}
	c.xs, c.ws = xs, ws
	c.totalW = totalW
	c.sorted = true
}

func (c *refCDF) P(x float64) float64 {
	if len(c.xs) == 0 || c.totalW == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.xs, x)
	// Advance over ties equal to x (SearchFloat64s gives first >= x).
	w := 0.0
	for j := 0; j < i; j++ {
		w += c.ws[j]
	}
	for j := i; j < len(c.xs) && c.xs[j] == x; j++ {
		w += c.ws[j]
	}
	return w / c.totalW
}

func (c *refCDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.ensureSorted()
	if q <= 0 {
		return c.xs[0]
	}
	target := q * c.totalW
	w := 0.0
	for i, x := range c.xs {
		w += c.ws[i]
		if w >= target {
			return x
		}
	}
	return c.xs[len(c.xs)-1]
}

func (c *refCDF) Points(n int) []Point {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	if n > len(c.xs) {
		n = len(c.xs)
	}
	pts := make([]Point, 0, n)
	cum := make([]float64, len(c.xs))
	w := 0.0
	for i := range c.xs {
		w += c.ws[i]
		cum[i] = w / c.totalW
	}
	for k := 0; k < n; k++ {
		i := k * (len(c.xs) - 1) / max(n-1, 1)
		pts = append(pts, Point{X: c.xs[i], Y: cum[i]})
	}
	return pts
}

// cdfQueries is what every compared accumulator answers.
type cdfQueries interface {
	P(x float64) float64
	Quantile(q float64) float64
	Points(n int) []Point
}

// refStream is StreamCDF's reference over one insertion sequence:
// refCDF up to cap samples, and past it a QuantileSketch fed the whole
// sequence, which is what StreamCDF's conversion replays. cap < 0 never
// sketches.
func refStream(cap int, in []sketchSample) cdfQueries {
	if cap < 0 || len(in) <= cap {
		r := &refCDF{}
		for _, s := range in {
			r.AddWeighted(s.x, s.w)
		}
		return r
	}
	sk := NewQuantileSketch(0)
	for _, s := range in {
		sk.Add(s.x, s.w)
	}
	return sk
}

// sameUpToSign reports whether two floats are equal bit for bit, or are
// both zeros: sortSamples keeps equal-key samples in input order, so
// two sorts of one multiset may differ only in where a −0 and a +0 sit.
func sameUpToSign(p, q float64) bool {
	return math.Float64bits(p) == math.Float64bits(q) || (p == 0 && q == 0)
}

// checkQueries requires got to answer every P, Quantile and Points
// query exactly as want does, up to the sign of a zero. P is asked at
// the specials and at a stride of the inserted samples.
func checkQueries(t *testing.T, got, want cdfQueries, in []sketchSample) {
	t.Helper()
	probes := append([]float64(nil), specials...)
	for i := 0; i < len(in); i += max(1, len(in)/64) {
		probes = append(probes, in[i].x)
	}
	for _, x := range probes {
		if g, w := got.P(x), want.P(x); !sameUpToSign(g, w) {
			t.Fatalf("n=%d: P(%g) = %g [%#x], reference %g [%#x]", len(in), x, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for _, q := range []float64{-1, 0, 1e-9, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1, 2} {
		if g, w := got.Quantile(q), want.Quantile(q); !sameUpToSign(g, w) {
			t.Fatalf("n=%d: Quantile(%g) = %g [%#x], reference %g [%#x]", len(in), q, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for _, k := range []int{0, 1, 2, 3, 10, 64, len(in), len(in) + 5} {
		g, w := got.Points(k), want.Points(k)
		if len(g) != len(w) {
			t.Fatalf("n=%d: Points(%d) has %d points, reference %d", len(in), k, len(g), len(w))
		}
		for i := range g {
			if !sameUpToSign(g[i].X, w[i].X) || !sameUpToSign(g[i].Y, w[i].Y) {
				t.Fatalf("n=%d: Points(%d)[%d] = %+v, reference %+v", len(in), k, i, g[i], w[i])
			}
		}
	}
}

// cdfRoute is how an insert sequence reaches the accumulator under test.
type cdfRoute struct {
	kind    int  // 0: one CDF; 1: a StreamCDF; 2: CDFs folded into a StreamCDF with MergeCDF
	halfway bool // kind 0: query halfway, so later samples append to a sorted store
	cap     int  // kinds 1 and 2: the StreamCDF's cap; < 0 never sketches
	chunk   int  // kind 2: samples per merged CDF
	sorted  int  // kind 2: chunk k is queried before its merge when bit k%8 is set
}

// checkCDFRoute inserts in along r and checks the result against the
// reference. A chunk queried before its merge is read by MergeCDF in
// canonical order, and the reference replays it in that order. Kind 0
// also compares N and TotalWeight.
func checkCDFRoute(t *testing.T, in []sketchSample, r cdfRoute) {
	t.Helper()
	switch r.kind {
	case 0:
		c, ref := &CDF{}, &refCDF{}
		for i, s := range in {
			if i == len(in)/2 && r.halfway {
				if g, w := c.P(s.x), ref.P(s.x); !sameUpToSign(g, w) {
					t.Fatalf("n=%d: P(%g) halfway = %g, reference %g", len(in), s.x, g, w)
				}
			}
			c.AddWeighted(s.x, s.w)
			ref.AddWeighted(s.x, s.w)
		}
		if c.N() != ref.N() {
			t.Fatalf("N = %d, reference %d", c.N(), ref.N())
		}
		if g, w := c.TotalWeight(), ref.TotalWeight(); !sameUpToSign(g, w) {
			t.Fatalf("n=%d: TotalWeight = %g [%#x], reference %g [%#x]", len(in), g, math.Float64bits(g), w, math.Float64bits(w))
		}
		checkQueries(t, c, ref, in)
	case 1:
		sc := NewStreamCDF(r.cap)
		for _, s := range in {
			sc.AddWeighted(s.x, s.w)
		}
		if sc.N() != int64(len(in)) {
			t.Fatalf("StreamCDF N = %d, want %d", sc.N(), len(in))
		}
		checkQueries(t, sc, refStream(r.cap, in), in)
	case 2:
		sc := NewStreamCDF(r.cap)
		var order []sketchSample
		for k, lo := 0, 0; lo < len(in); k, lo = k+1, lo+r.chunk {
			chunk := in[lo:min(lo+r.chunk, len(in))]
			c := &CDF{}
			for _, s := range chunk {
				c.AddWeighted(s.x, s.w)
			}
			if r.sorted>>(k%8)&1 == 1 {
				c.Quantile(0.5)
				ref := &refCDF{}
				for _, s := range chunk {
					ref.AddWeighted(s.x, s.w)
				}
				ref.ensureSorted()
				chunk = make([]sketchSample, len(chunk))
				for i := range chunk {
					chunk[i] = sketchSample{ref.xs[i], ref.ws[i]}
				}
			}
			order = append(order, chunk...)
			sc.MergeCDF(c)
		}
		if sc.N() != int64(len(in)) {
			t.Fatalf("merged StreamCDF N = %d, want %d", sc.N(), len(in))
		}
		checkQueries(t, sc, refStream(r.cap, order), in)
	}
}

// fuzzWeights are the weights FuzzCDFWeights draws: 1 first and nowhere
// else, then zeros of both signs, tiny, huge and infinite weights, and
// ordinary ones.
var fuzzWeights = []float64{
	1, 0, math.Copysign(0, -1), 0.5, 2, 3, 1e-300, 0x1p-1030,
	math.MaxFloat64, math.Inf(1), 7, 1e6, 0.25, 100, 1.5, 64,
}

// fuzzX maps a byte to a sample: the specials (both zeros, both
// infinities, subnormals, extremes) or one of 192 quarter-spaced values,
// so that inputs are full of duplicates.
func fuzzX(b byte) float64 {
	if b < 64 {
		return specials[int(b)%len(specials)]
	}
	return float64(int(b)-160) / 4
}

// The three insert sequences of FuzzCDFWeights and
// TestCDFMatchesReference.
const (
	seqUnit     = iota // every weight 1
	seqOneOdd          // every weight 1 but one
	seqWeighted        // a weight per sample
)

// FuzzCDFWeights checks the unit-weight store against refCDF on
// arbitrary insert sequences. data[0] picks the sequence (mod 3) and
// the route's kind (data[0]/3 mod 3). data[1] sets the route: a query
// halfway when odd, a cap of 1 + data[1]%32 (kind 2: never sketch when
// even), chunks of 1 + data[1]/2%8; and it places seqOneOdd's weight.
// data[2] picks that weight and is the route's chunk-query bits. Each
// later pair of bytes is one sample: its x (fuzzX) and, in seqWeighted,
// its weight (fuzzWeights). Inputs stop at 2 048 samples, so the sketch
// never fills a buffer; TestCDFMatchesReference covers that.
func FuzzCDFWeights(f *testing.F) {
	const fuzzMaxSamples = 1 << 11
	f.Add([]byte{0, 0, 0, 200, 0, 32, 0, 200, 0, 9, 0})
	f.Add([]byte{1, 3, 5, 200, 0, 32, 0, 31, 0, 9, 0, 64, 0})
	f.Add([]byte{2, 7, 0, 200, 1, 32, 2, 200, 9, 0, 3, 1, 4})
	f.Add([]byte{4, 2, 9, 180, 0, 170, 0, 160, 0, 150, 0})
	f.Add([]byte{5, 40, 0x5a, 1, 1, 0, 2, 9, 3, 200, 4, 200, 5, 31, 6})
	f.Add([]byte{7, 5, 0xff, 0, 0, 1, 0, 0, 0, 1, 0, 170, 0, 170, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		seq, kind, knob := int(data[0])%3, int(data[0])/3%3, int(data[1])
		var in []sketchSample
		for rest := data[3:min(len(data), 3+2*fuzzMaxSamples)]; len(rest) >= 2; rest = rest[2:] {
			w := 1.0
			if seq == seqWeighted {
				w = fuzzWeights[int(rest[1])%len(fuzzWeights)]
			}
			in = append(in, sketchSample{fuzzX(rest[0]), w})
		}
		if seq == seqOneOdd && len(in) > 0 {
			in[knob%len(in)].w = fuzzWeights[1+int(data[2])%(len(fuzzWeights)-1)]
		}
		r := cdfRoute{kind: kind, halfway: knob%2 == 1, cap: 1 + knob%32, chunk: 1 + knob/2%8, sorted: int(data[2])}
		if kind == 2 && knob%2 == 0 {
			r.cap = -1
		}
		checkCDFRoute(t, in, r)
	})
}

// TestCDFMatchesReference is the seeded counterpart of FuzzCDFWeights,
// at lengths up to 20 000: radix passes over many distinct digits, and
// StreamCDFs whose sketch fills and compacts buffers. A cap of 9 000
// converts past the sketch's first two 4 096-sample buffers, whose union
// is what the first compaction sees, so the order the conversion
// replays in shows; merged chunks of 7 straddle the buffers.
func TestCDFMatchesReference(t *testing.T) {
	kinds := []string{"exp-unit", "exp-bytes", "signed-varied", "ties", "zeros", "subnormal", "descending", "constant"}
	routes := []cdfRoute{
		{kind: 0},
		{kind: 0, halfway: true},
		{kind: 1, cap: 14},
		{kind: 1, cap: 9000},
		{kind: 2, cap: -1, chunk: 7, sorted: 0x5a},
		{kind: 2, cap: 14, chunk: 7, sorted: 0x5a},
	}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, 2, 257, 4097, 20_000} {
			for seq := seqUnit; seq <= seqWeighted; seq++ {
				for ri, r := range routes {
					t.Run(fmt.Sprintf("%s/%d/seq%d/route%d", kind, n, seq, ri), func(t *testing.T) {
						rng := NewRNG(uint64(n)).Fork(kind)
						in := genSamples(rng, kind, n)
						if seq != seqWeighted {
							for i := range in {
								in[i].w = 1
							}
						}
						if seq == seqOneOdd && n > 0 {
							in[n/3].w = 0.5
						}
						checkCDFRoute(t, in, r)
					})
				}
			}
		}
	}
}

// TestCDFUnitSamplesStoreXAlone is the memory guard of the unit store:
// n unit samples, reserved with Grow, allocate about 8 bytes each, and
// so does their sort; the first weight other than 1 then creates the
// weight column, with 1 for every earlier sample.
func TestCDFUnitSamplesStoreXAlone(t *testing.T) {
	const n = 1 << 16
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := &CDF{}
	c.Grow(n)
	for i := 0; i < n; i++ {
		c.Add(float64(i % 97))
	}
	runtime.ReadMemStats(&m1)
	c.Quantile(0.5)
	runtime.ReadMemStats(&m2)
	if b := m1.TotalAlloc - m0.TotalAlloc; b >= 10*n {
		t.Errorf("%d unit samples allocated %d bytes (%.1f per sample), want under 10 per sample", n, b, float64(b)/n)
	}
	if b := m2.TotalAlloc - m1.TotalAlloc; b >= 10*n {
		t.Errorf("sorting %d unit samples allocated %d bytes (%.1f per sample), want under 10 per sample", n, b, float64(b)/n)
	}
	if c.ws != nil {
		t.Fatalf("unit CDF holds a weight column of %d", len(c.ws))
	}
	c.AddWeighted(5, 2)
	if len(c.ws) != n+1 || c.ws[n] != 2 {
		t.Fatalf("after the first weight of 2: %d weights, last %v; want %d, last 2", len(c.ws), c.ws[len(c.ws)-1], n+1)
	}
	for i, w := range c.ws[:n] {
		if w != 1 {
			t.Fatalf("weight %d = %v, want 1", i, w)
		}
	}
	if got := c.TotalWeight(); got != n+2 {
		t.Fatalf("TotalWeight = %v, want %d", got, n+2)
	}
}
