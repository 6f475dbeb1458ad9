package tm

// ChangeRing is the online accumulator behind Figure 10's
// traffic-churn series: it consumes per-bin traffic matrices in bin
// order and produces each bin's total (the top panel) and, per lag l,
// the normalized change from bin j−l to bin j (the bottom panel) —
// while retaining only the last max(lag) matrices in a ring instead of
// the whole series. This is what lets a week-long streaming analysis
// track TM churn without holding a week of matrices.
//
// Push sorts each matrix's keys once and keeps them beside it in the
// ring, and each change takes its denominator from the earlier bin's
// magnitude, so a pushed matrix must not change afterwards.
type ChangeRing struct {
	lags    []int
	keep    int
	ring    []ringSlot
	n       int
	mags    []float64
	changes [][]float64 // parallel to lags
}

// ringSlot is one retained bin: its matrix and the matrix's sortedKeys.
type ringSlot struct {
	m    *Matrix
	keys []int64
}

// NewChangeRing tracks churn at the given positive lags (in bins).
func NewChangeRing(lags ...int) *ChangeRing {
	keep := 0
	for _, l := range lags {
		if l <= 0 {
			panic("tm: ChangeRing lag must be positive")
		}
		if l > keep {
			keep = l
		}
	}
	return &ChangeRing{
		lags:    append([]int(nil), lags...),
		keep:    keep,
		ring:    make([]ringSlot, max(keep, 1)),
		changes: make([][]float64, len(lags)),
	}
}

// Push appends the next bin's matrix j. For each lag l with at least l
// prior bins it appends the normalized change from bin j−l to bin j,
// |M(j) − M(j−l)|₁ / |M(j−l)|₁ (0 when bin j−l is empty), at series
// index j−l.
func (c *ChangeRing) Push(m *Matrix) {
	j := c.n
	keys := m.sortedKeys()
	c.mags = append(c.mags, m.sum(keys))
	for li, lag := range c.lags {
		if j >= lag {
			e := c.ring[(j-lag)%c.keep]
			c.changes[li] = append(c.changes[li], normalizedChange(e.m, m, e.keys, keys, c.mags[j-lag]))
		}
	}
	if c.keep > 0 {
		c.ring[j%c.keep] = ringSlot{m, keys}
	}
	c.n++
}

// N reports the number of bins pushed.
func (c *ChangeRing) N() int { return c.n }

// Magnitude returns the per-bin matrix totals.
func (c *ChangeRing) Magnitude() []float64 { return c.mags }

// Changes returns the churn series for the i'th configured lag. Nil
// when no bin pair has spanned the lag yet.
func (c *ChangeRing) Changes(i int) []float64 { return c.changes[i] }
