package stats

import "math"

// sortKey maps a float64 to a uint64 whose unsigned order is the
// float's numeric order: negative floats have every bit flipped,
// non-negative ones only the sign bit. −0 takes +0's key, so the two
// zeros tie exactly as they do under ==. NaN is outside that order: a
// NaN with the sign bit clear keys above +Inf, one with it set below
// −Inf.
func sortKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortSamples puts the weighted samples (xs[i], ws[i]) into dx and dw
// in canonical order — ascending x, ties by ascending w — with an LSD
// radix sort over the sortKey images: eight byte passes over w, then
// eight over x, each stable, so the last passes order by x and earlier
// ones break ties by w. One sweep fills all sixteen byte histograms, and
// a pass whose digit is the same for every sample is skipped (unit
// weights skip all eight w passes). The passes alternate between the
// two pairs of slices, so xs and ws are clobbered; all four slices have
// the same length. A nil weight column means every weight is 1: ws and
// dw are then both nil, and the sweep and the passes touch x alone.
//
// For NaN-free input the order is the comparator's "x < x', or x == x'
// and w < w'" on every key, and samples with equal keys are equal under
// == (they differ at most in the sign of a zero), so any two sorts of
// the same multiset agree bit for bit up to that sign. Equal-key
// samples keep their input order.
func sortSamples(dx, dw, xs, ws []float64) {
	n := len(xs)
	if n < 2 {
		copy(dx, xs)
		copy(dw, ws)
		return
	}
	// counts[p] is the histogram of pass p: bytes 0–7 of w's key, then
	// bytes 0–7 of x's key. The fill is unrolled by hand; as a loop over
	// the eight bytes it made BenchmarkCDFSort/unit about a quarter
	// slower.
	var counts [16][256]int
	for i, x := range xs {
		kx := sortKey(x)
		counts[8][byte(kx)]++
		counts[9][byte(kx>>8)]++
		counts[10][byte(kx>>16)]++
		counts[11][byte(kx>>24)]++
		counts[12][byte(kx>>32)]++
		counts[13][byte(kx>>40)]++
		counts[14][byte(kx>>48)]++
		counts[15][byte(kx>>56)]++
		if ws == nil {
			continue
		}
		kw := sortKey(ws[i])
		counts[0][byte(kw)]++
		counts[1][byte(kw>>8)]++
		counts[2][byte(kw>>16)]++
		counts[3][byte(kw>>24)]++
		counts[4][byte(kw>>32)]++
		counts[5][byte(kw>>40)]++
		counts[6][byte(kw>>48)]++
		counts[7][byte(kw>>56)]++
	}
	fx, fw, tx, tw := xs, ws, dx, dw
	kx0 := sortKey(xs[0])
	var kw0 uint64
	if ws != nil {
		kw0 = sortKey(ws[0])
	}
	for p := range counts {
		if p < 8 && ws == nil {
			continue
		}
		shift := 8 * uint(p%8)
		k0 := kw0
		if p >= 8 {
			k0 = kx0
		}
		c := &counts[p]
		if c[byte(k0>>shift)] == n {
			continue
		}
		off := 0
		for d, cnt := range c {
			c[d] = off
			off += cnt
		}
		switch {
		case p < 8:
			for i, w := range fw {
				d := byte(sortKey(w) >> shift)
				j := c[d]
				tx[j], tw[j] = fx[i], w
				c[d]++
			}
		case fw == nil:
			for _, x := range fx {
				d := byte(sortKey(x) >> shift)
				tx[c[d]] = x
				c[d]++
			}
		default:
			for i, x := range fx {
				d := byte(sortKey(x) >> shift)
				j := c[d]
				tx[j], tw[j] = x, fw[i]
				c[d]++
			}
		}
		fx, fw, tx, tw = tx, tw, fx, fw
	}
	if &fx[0] != &dx[0] {
		copy(dx, fx)
		copy(dw, fw)
	}
}
