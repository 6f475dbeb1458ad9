package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// sortSamplesOracle is the canonical-order sort sortSamples replaced:
// sort.Slice with the "ascending x, ties by ascending w" comparator.
func sortSamplesOracle(s []sketchSample) {
	sort.Slice(s, func(a, b int) bool {
		if s[a].x != s[b].x {
			return s[a].x < s[b].x
		}
		return s[a].w < s[b].w
	})
}

// kernelSort runs sortSamples over the columns of in and returns the
// sorted samples; in is left as it was.
func kernelSort(in []sketchSample) []sketchSample {
	n := len(in)
	xs, ws := make([]float64, n), make([]float64, n)
	for i, v := range in {
		xs[i], ws[i] = v.x, v.w
	}
	dx, dw := make([]float64, n), make([]float64, n)
	sortSamples(dx, dw, xs, ws)
	out := make([]sketchSample, n)
	for i := range out {
		out[i] = sketchSample{dx[i], dw[i]}
	}
	return out
}

// sameBits reports whether two samples are equal bit for bit.
func sameBits(a, b sketchSample) bool {
	return math.Float64bits(a.x) == math.Float64bits(b.x) &&
		math.Float64bits(a.w) == math.Float64bits(b.w)
}

// sameUpToZeroSign reports whether two samples are equal bit for bit,
// except that a zero may carry either sign where both are zero: the
// oracle is unstable, so it may permute equal-key samples such as
// (−0, 1) and (+0, 1).
func sameUpToZeroSign(a, b sketchSample) bool {
	return sameUpToSign(a.x, b.x) && sameUpToSign(a.w, b.w)
}

// checkSortSamples sorts in with sortSamples and requires, on every x
// and w: equality with the oracle up to the sign of a zero, and
// bit-for-bit equality with a stable sort by the oracle's comparator
// (equal-key samples keep their input order). It then sorts in's x
// column alone through checkSortXs.
func checkSortSamples(t *testing.T, in []sketchSample) {
	t.Helper()
	checkSortXs(t, in)
	got := kernelSort(in)
	want := append([]sketchSample(nil), in...)
	sortSamplesOracle(want)
	stable := append([]sketchSample(nil), in...)
	sort.SliceStable(stable, func(a, b int) bool {
		if stable[a].x != stable[b].x {
			return stable[a].x < stable[b].x
		}
		return stable[a].w < stable[b].w
	})
	for i := range got {
		if !sameUpToZeroSign(got[i], want[i]) {
			t.Fatalf("n=%d: [%d] = (%v, %v) [%#x, %#x], oracle (%v, %v) [%#x, %#x]",
				len(in), i, got[i].x, got[i].w, math.Float64bits(got[i].x), math.Float64bits(got[i].w),
				want[i].x, want[i].w, math.Float64bits(want[i].x), math.Float64bits(want[i].w))
		}
		if !sameBits(got[i], stable[i]) {
			t.Fatalf("n=%d: [%d] = (%v, %v) [%#x, %#x], stable oracle (%v, %v) [%#x, %#x]",
				len(in), i, got[i].x, got[i].w, math.Float64bits(got[i].x), math.Float64bits(got[i].w),
				stable[i].x, stable[i].w, math.Float64bits(stable[i].x), math.Float64bits(stable[i].w))
		}
	}
}

// checkSortXs sorts the x column of in with a nil weight column, as a
// unit-weight CDF does, and requires it bit for bit equal to a stable
// sort of the xs by value.
func checkSortXs(t *testing.T, in []sketchSample) {
	t.Helper()
	xs := make([]float64, len(in))
	for i, v := range in {
		xs[i] = v.x
	}
	want := append([]float64(nil), xs...)
	sort.SliceStable(want, func(a, b int) bool { return want[a] < want[b] })
	got := make([]float64, len(xs))
	sortSamples(got, nil, xs, nil)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d, nil weights: [%d] = %v [%#x], stable sort %v [%#x]",
				len(in), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the values the property and fuzz tests draw ties from:
// both zeros, both infinities, subnormals, the normal extremes, and a
// few ordinary values.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, 1e-300,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, // subnormal
	math.MaxFloat64, -math.MaxFloat64,
	0x1p-1022, // smallest normal
}

// genSamples draws n samples of one kind from rng.
func genSamples(rng *RNG, kind string, n int) []sketchSample {
	s := make([]sketchSample, n)
	for i := range s {
		switch kind {
		case "exp-unit": // gap-like values, unit weights
			s[i] = sketchSample{rng.ExpFloat64() * 100, 1}
		case "exp-bytes": // byte-count weights, as Figure 9's bytes CDF
			s[i] = sketchSample{rng.ExpFloat64() * 10, float64(1 + rng.IntN(1<<26))}
		case "signed-varied": // both signs, varied weights
			s[i] = sketchSample{rng.NormFloat64() * 1e3, rng.Float64() * 10}
		case "ties": // few distinct values and weights
			s[i] = sketchSample{float64(rng.IntN(8)), float64(rng.IntN(3))}
		case "zeros": // ±0 with distinct and equal weights
			x := 0.0
			if rng.IntN(2) == 0 {
				x = math.Copysign(0, -1)
			}
			w := float64(rng.IntN(4))
			if rng.IntN(4) == 0 {
				w = math.Copysign(0, -1)
			}
			s[i] = sketchSample{x, w}
		case "specials": // infinities, subnormals, extremes, ties
			s[i] = sketchSample{specials[rng.IntN(len(specials))], specials[rng.IntN(len(specials))]}
		case "ascending":
			s[i] = sketchSample{float64(i), 1}
		case "descending":
			s[i] = sketchSample{float64(n - i), float64(i % 7)}
		case "constant": // every pass skipped
			s[i] = sketchSample{42, 1}
		case "subnormal":
			s[i] = sketchSample{math.Float64frombits(uint64(rng.Int64N(1 << 52))), 1}
			if rng.IntN(2) == 0 {
				s[i].x = -s[i].x
			}
		default:
			panic("unknown kind " + kind)
		}
	}
	return s
}

// TestSortSamplesMatchesOracle is the seeded property test: every kind
// of input, at lengths from 0 through several thousand, sorts exactly
// as the oracle does.
func TestSortSamplesMatchesOracle(t *testing.T) {
	kinds := []string{"exp-unit", "exp-bytes", "signed-varied", "ties", "zeros", "specials", "subnormal",
		"ascending", "descending", "constant"}
	lengths := []int{0, 1, 2, 3, 5, 16, 31, 32, 33, 255, 256, 257, 1000, 4095, 4096, 4097, 20_000}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, kind := range kinds {
			for _, n := range lengths {
				t.Run(fmt.Sprintf("seed%d/%s/%d", seed, kind, n), func(t *testing.T) {
					rng := NewRNG(seed).Fork(kind)
					checkSortSamples(t, genSamples(rng, kind, n))
				})
			}
		}
	}
}

// TestSortKeyOrder pins the key image: unsigned key order is numeric
// order, and the two zeros share one key.
func TestSortKeyOrder(t *testing.T) {
	ordered := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -0x1p-1022, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 1, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(ordered); i++ {
		if sortKey(ordered[i-1]) >= sortKey(ordered[i]) {
			t.Fatalf("key(%g) = %#x, not below key(%g) = %#x",
				ordered[i-1], sortKey(ordered[i-1]), ordered[i], sortKey(ordered[i]))
		}
	}
	if negZero := math.Copysign(0, -1); sortKey(negZero) != sortKey(0) {
		t.Fatalf("key(−0) = %#x, key(+0) = %#x", sortKey(negZero), sortKey(0))
	}
}

// TestSortSamplesNaNPlacement pins where the kernel puts NaN, which the
// oracle's comparator leaves unordered (CDF and QuantileSketch reject
// NaN, so it only reaches the kernel directly): a NaN with the sign bit
// clear sorts after +Inf, one with it set before −Inf, in x and, among
// equal x, in w; equal NaNs keep their input order.
func TestSortSamplesNaNPlacement(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000000)
	inf := math.Inf(1)
	in := []sketchSample{
		{1, 2}, {nan, 1}, {inf, 1}, {negNaN, 5}, {1, nan}, {-inf, 1},
		{1, inf}, {nan, 0}, {1, negNaN}, {0, 1}, {negNaN, 3},
	}
	want := []sketchSample{
		{negNaN, 3}, {negNaN, 5}, {-inf, 1}, {0, 1},
		{1, negNaN}, {1, 2}, {1, inf}, {1, nan},
		{inf, 1}, {nan, 0}, {nan, 1},
	}
	got := kernelSort(in)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("[%d] = (%v, %v) [%#x, %#x], want (%v, %v) [%#x, %#x]",
				i, got[i].x, got[i].w, math.Float64bits(got[i].x), math.Float64bits(got[i].w),
				want[i].x, want[i].w, math.Float64bits(want[i].x), math.Float64bits(want[i].w))
		}
	}
}

// FuzzSortSamples compares the kernel with the oracle on arbitrary
// NaN-free samples, and its x column alone with a nil weight column
// against a stable sort (checkSortSamples). An odd first byte draws
// each sample's x and w from specials (ties, ±0, ±Inf, subnormals), one
// byte per sample; otherwise every 16 bytes are the raw bits of x and
// w, and NaNs are dropped.
// Inputs stop at fuzzMaxSamples samples, which keeps each execution
// short; TestSortSamplesMatchesOracle covers longer slices.
func FuzzSortSamples(f *testing.F) {
	const fuzzMaxSamples = 1 << 12
	f.Add([]byte{})
	f.Add([]byte{1, 0x10, 0x01, 0x11, 0x00, 0x21, 0x12, 0x80, 0x08, 0xff})
	f.Add([]byte{1, 0x00, 0x01, 0x10, 0x11, 0x01, 0x00, 0x31, 0x13})
	raw := make([]byte, 1, 1+16*4)
	for _, v := range []sketchSample{{2, 1}, {math.Copysign(0, -1), 3}, {0, 1}, {2, 0.5}} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v.x))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v.w))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []sketchSample
		if len(data) > 0 && data[0]&1 == 1 {
			for _, b := range data[1:min(len(data), 1+fuzzMaxSamples)] {
				in = append(in, sketchSample{specials[b&15], specials[b>>4]})
			}
		} else if len(data) > 0 {
			for rest := data[1:min(len(data), 1+16*fuzzMaxSamples)]; len(rest) >= 16; rest = rest[16:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(rest))
				w := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
				if !math.IsNaN(x) && !math.IsNaN(w) {
					in = append(in, sketchSample{x, w})
				}
			}
		}
		checkSortSamples(t, in)
	})
}
