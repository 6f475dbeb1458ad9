package stats

import "math"

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs and ys. It returns 0 when either side has zero variance or the slices
// are shorter than two elements. It panics if the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinFit fits y = a + b·x by ordinary least squares and returns (a, b).
// With fewer than two points it returns (y0, 0).
func LinFit(xs, ys []float64) (a, b float64) {
	if len(xs) != len(ys) {
		panic("stats: LinFit length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ys[0], 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return my, 0
	}
	b = sxy / sxx
	return my - b*mx, b
}

// LogFit fits y = a + b·ln(x) by least squares over the points with x > 0
// and returns (a, b). The paper's Figure 13 overlays such a logarithmic
// best-fit on the error-vs-sparsity scatter.
func LogFit(xs, ys []float64) (a, b float64) {
	if len(xs) != len(ys) {
		panic("stats: LogFit length mismatch")
	}
	var lx, ly []float64
	for i, x := range xs {
		if x > 0 {
			lx = append(lx, math.Log(x))
			ly = append(ly, ys[i])
		}
	}
	return LinFit(lx, ly)
}
