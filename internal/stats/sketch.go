package stats

import (
	"math"
	"sort"
)

// DefaultCDFSampleCap is the number of exact samples a StreamCDF holds
// before switching to the bounded quantile sketch. At 16 bytes per
// weighted sample and 8 per unit-weight sample this caps each whole-run
// CDF near 8 MB, or 4 MB when every weight is 1, regardless of trace
// length; below the cap results are bit-identical to CDF.
const DefaultCDFSampleCap = 1 << 19

// defaultSketchBuffer is the per-level buffer size of QuantileSketch.
// With buffers of B samples the rank-error bound after N insertions of
// uniform weight w is about w·log2(N/B)/2, i.e. a relative rank error
// of roughly log2(N/B)/(2B) — under 0.2% for a week-long paper-scale
// trace.
const defaultSketchBuffer = 4096

type sketchSample struct {
	x, w float64
}

// QuantileSketch is a deterministic bounded-memory summary of a weighted
// sample stream, in the Manku–Rajagopalan–Lindsay collapse-and-promote
// family. Samples fill a level-0 buffer of b entries; a full buffer is
// sorted and promoted, and when two sorted runs meet at the same level
// they are merged and compacted to half size by keeping alternate
// elements (the kept element absorbs its dropped neighbour's weight).
// Which alternate survives flips per level on each compaction — a
// deterministic stand-in for the random offset of randomized sketches,
// chosen so identical insertion sequences always produce identical
// summaries (the repo-wide determinism contract).
//
// The sketch tracks its own rank-error bound: each compaction can shift
// the rank of any value by at most the largest sample weight in the
// compacted run, accumulated in errW. ErrorBound reports errW as a
// fraction of total weight; observed rank error is typically far below
// it.
type QuantileSketch struct {
	b      int
	buf    []sketchSample   // level-0 insertion buffer, unsorted
	levels [][]sketchSample // levels[i] is a sorted run of ≤ b samples, or nil
	flips  []bool           // per-level alternation state
	tmp    []float64        // sortRuns scratch: four parallel columns
	n      int64
	errW   float64

	// materialized query cache, rebuilt after mutation
	mat    []sketchSample
	cum    []float64
	totalW float64
}

// NewQuantileSketch returns a sketch with per-level buffers of b
// samples; b <= 0 selects the default.
func NewQuantileSketch(b int) *QuantileSketch {
	if b <= 0 {
		b = defaultSketchBuffer
	}
	if b%2 != 0 {
		b++ // compaction pairs elements; keep runs even-sized
	}
	return &QuantileSketch{b: b}
}

// Add inserts one weighted sample. Negative or NaN weights and NaN
// samples panic, mirroring CDF.
func (s *QuantileSketch) Add(x, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic("stats: negative or NaN sketch weight")
	}
	if math.IsNaN(x) {
		panic("stats: NaN sketch sample")
	}
	s.n++
	s.mat = nil
	s.buf = append(s.buf, sketchSample{x, w})
	if len(s.buf) >= s.b {
		s.flush()
	}
}

// flush sorts the level-0 buffer and promotes it with carry.
func (s *QuantileSketch) flush() {
	carry := s.sortRuns(s.buf)
	s.buf = s.buf[:0]
	for l := 0; ; l++ {
		if l >= len(s.levels) {
			s.levels = append(s.levels, nil)
			s.flips = append(s.flips, false)
		}
		if s.levels[l] == nil {
			s.levels[l] = carry
			return
		}
		merged := mergeSorted(s.levels[l], carry)
		s.levels[l] = nil
		maxW := 0.0
		for _, v := range merged {
			if v.w > maxW {
				maxW = v.w
			}
		}
		s.errW += maxW
		carry = compactRun(merged, s.flips[l])
		s.flips[l] = !s.flips[l]
	}
}

// sortRuns returns the samples of runs, concatenated, in canonical
// order (sortSamples) in a new slice. The sort's parallel x and w
// columns live in the sketch's scratch, which grows to the largest sort
// and is reused.
func (s *QuantileSketch) sortRuns(runs ...[]sketchSample) []sketchSample {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if len(s.tmp) < 4*n {
		s.tmp = make([]float64, 4*n)
	}
	xs, ws, dx, dw := s.tmp[:n], s.tmp[n:2*n], s.tmp[2*n:3*n], s.tmp[3*n:4*n]
	i := 0
	for _, r := range runs {
		for _, v := range r {
			xs[i], ws[i] = v.x, v.w
			i++
		}
	}
	sortSamples(dx, dw, xs, ws)
	out := make([]sketchSample, n)
	for i := range out {
		out[i] = sketchSample{dx[i], dw[i]}
	}
	return out
}

// mergeSorted merges two canonically sorted runs, preserving order.
func mergeSorted(a, b []sketchSample) []sketchSample {
	out := make([]sketchSample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i], b[j]
		if ai.x < bj.x || (ai.x == bj.x && ai.w <= bj.w) {
			out = append(out, ai)
			i++
		} else {
			out = append(out, bj)
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// compactRun halves a sorted run: each adjacent pair keeps one element
// (the even- or odd-indexed one, by flip) carrying the pair's combined
// weight. An odd trailing element survives unchanged.
func compactRun(run []sketchSample, flip bool) []sketchSample {
	keep := 0
	if flip {
		keep = 1
	}
	out := make([]sketchSample, 0, (len(run)+1)/2)
	i := 0
	for ; i+1 < len(run); i += 2 {
		kept := run[i+keep]
		kept.w = run[i].w + run[i+1].w
		out = append(out, kept)
	}
	if i < len(run) {
		out = append(out, run[i])
	}
	return out
}

// materialize gathers every retained sample in canonical order and
// precomputes the cumulative weights queries walk.
func (s *QuantileSketch) materialize() {
	if s.mat != nil {
		return
	}
	mat := s.sortRuns(append([][]sketchSample{s.buf}, s.levels...)...)
	cum := make([]float64, len(mat))
	w := 0.0
	for i, v := range mat {
		w += v.w
		cum[i] = w
	}
	s.mat, s.cum, s.totalW = mat, cum, w
}

// N reports the number of samples inserted (not retained).
func (s *QuantileSketch) N() int64 { return s.n }

// TotalWeight reports the summed weight of retained samples, which
// equals the inserted total up to float association (compaction merges
// pair weights, never drops them).
func (s *QuantileSketch) TotalWeight() float64 {
	s.materialize()
	return s.totalW
}

// ErrorBound reports the accumulated worst-case rank error as a
// fraction of total weight: for any x, the reported P(X <= x) is within
// ErrorBound of the exact fraction.
func (s *QuantileSketch) ErrorBound() float64 {
	s.materialize()
	if s.totalW == 0 {
		return 0
	}
	return s.errW / s.totalW
}

// P returns the estimated fraction of total weight at or below x.
func (s *QuantileSketch) P(x float64) float64 {
	s.materialize()
	if len(s.mat) == 0 || s.totalW == 0 {
		return 0
	}
	// Last retained sample with value <= x.
	i := sort.Search(len(s.mat), func(i int) bool { return s.mat[i].x > x })
	if i == 0 {
		return 0
	}
	return s.cum[i-1] / s.totalW
}

// Quantile returns the smallest retained sample x with estimated
// P(X <= x) >= q, for q in (0, 1]. Quantile(0) returns the minimum.
func (s *QuantileSketch) Quantile(q float64) float64 {
	s.materialize()
	if len(s.mat) == 0 {
		return 0
	}
	if q <= 0 {
		return s.mat[0].x
	}
	target := q * s.totalW
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] >= target })
	if i >= len(s.mat) {
		i = len(s.mat) - 1
	}
	return s.mat[i].x
}

// Points returns up to n (x, P(X<=x)) pairs evenly spaced in retained
// rank, mirroring CDF.Points.
func (s *QuantileSketch) Points(n int) []Point {
	s.materialize()
	if len(s.mat) == 0 || n <= 0 {
		return nil
	}
	if n > len(s.mat) {
		n = len(s.mat)
	}
	pts := make([]Point, 0, n)
	for k := 0; k < n; k++ {
		i := k * (len(s.mat) - 1) / max(n-1, 1)
		pts = append(pts, Point{X: s.mat[i].x, Y: s.cum[i] / s.totalW})
	}
	return pts
}

// StreamCDF is a CDF accumulator for unbounded record streams. Below
// cap samples it is an exact CDF — queries bit-identical to CDF — and
// on the insertion that would exceed cap it converts to a
// QuantileSketch, replaying the exact samples in insertion order (in
// canonical order if it was queried below the cap) so the conversion,
// like everything else here, is a pure function of the input sequence
// and its queries. cap <= 0 means never sketch (fully exact).
//
// It intentionally offers no Merge-with-StreamCDF: whole-run streaming
// statistics are accumulated on one goroutine in record order, so the
// result is a pure function of the record sequence.
type StreamCDF struct {
	cap   int
	n     int64
	exact *CDF
	sk    *QuantileSketch
}

// NewStreamCDF returns a StreamCDF that sketches beyond cap samples;
// cap < 0 never sketches, cap == 0 selects DefaultCDFSampleCap.
func NewStreamCDF(cap int) *StreamCDF {
	if cap == 0 {
		cap = DefaultCDFSampleCap
	}
	return &StreamCDF{cap: cap, exact: &CDF{}}
}

// Add appends one unweighted sample.
func (c *StreamCDF) Add(x float64) { c.AddWeighted(x, 1) }

// AddWeighted appends a weighted sample, converting to the sketch when
// the exact sample cap is crossed.
func (c *StreamCDF) AddWeighted(x, w float64) {
	c.n++
	if c.sk != nil {
		c.sk.Add(x, w)
		return
	}
	if c.cap > 0 && c.exact.N() >= c.cap {
		c.convert()
		c.sk.Add(x, w)
		return
	}
	c.exact.AddWeighted(x, w)
}

// convert replays the exact samples into a fresh sketch, in insertion
// order, and drops the exact copy.
func (c *StreamCDF) convert() {
	sk := NewQuantileSketch(0)
	for i, x := range c.exact.xs {
		sk.Add(x, c.exact.weight(i))
	}
	c.sk = sk
	c.exact = nil
}

// MergeCDF appends every sample of an exact CDF: in its insertion order
// until o is first queried, in its canonical order after. Merging a
// never-queried CDF equals adding its samples one by one.
func (c *StreamCDF) MergeCDF(o *CDF) {
	if o == nil {
		return
	}
	for i, x := range o.xs {
		c.AddWeighted(x, o.weight(i))
	}
}

// N reports the number of samples inserted.
func (c *StreamCDF) N() int64 { return c.n }

// Sketched reports whether the accumulator has crossed into sketch mode.
func (c *StreamCDF) Sketched() bool { return c.sk != nil }

// ErrorBound reports the rank-error bound: 0 while exact, the sketch's
// bound after conversion.
func (c *StreamCDF) ErrorBound() float64 {
	if c.sk == nil {
		return 0
	}
	return c.sk.ErrorBound()
}

// P returns the fraction of total weight at or below x.
func (c *StreamCDF) P(x float64) float64 {
	if c.sk != nil {
		return c.sk.P(x)
	}
	return c.exact.P(x)
}

// Quantile returns the smallest sample x with P(X <= x) >= q.
func (c *StreamCDF) Quantile(q float64) float64 {
	if c.sk != nil {
		return c.sk.Quantile(q)
	}
	return c.exact.Quantile(q)
}

// Points returns up to n plot points, mirroring CDF.Points.
func (c *StreamCDF) Points(n int) []Point {
	if c.sk != nil {
		return c.sk.Points(n)
	}
	return c.exact.Points(n)
}
