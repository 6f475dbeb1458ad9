package main

import (
	"math"
	"regexp"
	"sort"
	"syscall"
)

// summary is one metric's distribution over a workload's reps.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize returns the median and quartiles of xs. Quartiles use the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads dcbench prints are the ones a reader recomputes from the
// per-rep samples in results.json.
func summarize(xs []float64, unit string) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Unit: unit}
	switch len(s) {
	case 0:
		return out
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	out.Median = median(s)
	out.Q1 = quartile(s, 1)
	out.Q3 = quartile(s, 3)
	return out
}

// median of an ascending slice with at least one element.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns cut point i (1..3) of an ascending slice of at least
// two elements, by the exclusive method: position i·(n+1)/4, clamped to
// the data, linearly interpolated.
func quartile(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// verdict compares one metric between a base and a new run.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "WORSE"
	verdictUnresolved verdict = "unresolved"
)

// checkBound judges new against base for a metric with the given bound
// (a share of the base median), absolute floor (0 for none) and
// direction. A median change smaller than the floor is no change.
// Otherwise the metric is worse when the new median is worse than the
// base median by more than the bound, and unresolved when either side's
// spread is wider than the bound — noise could hide a regression —
// unless every new sample reads better than every base sample (new q3
// below base q1, for a lower-is-better metric).
func checkBound(base, cur summary, bound, floor float64, lowerBetter bool) (verdict, float64) {
	if base.Median == 0 {
		return verdictUnresolved, 0
	}
	change := (cur.Median - base.Median) / math.Abs(base.Median)
	if math.Abs(cur.Median-base.Median) < floor {
		return verdictOK, change
	}
	worse := change
	if !lowerBetter {
		worse = -change
	}
	if worse > bound {
		return verdictWorse, change
	}
	if base.spread() > bound || cur.spread() > bound {
		allBetter := cur.Q3 < base.Q1
		if !lowerBetter {
			allBetter = cur.Q1 > base.Q3
		}
		if !allBetter {
			return verdictUnresolved, change
		}
	}
	return verdictOK, change
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a workload or metric name follows the
// benchmark's naming rule: letters, digits, '_', '.' and '-', starting
// with a letter or digit, at most 64 characters.
func validName(s string) bool { return nameRE.MatchString(s) }

// rusageMetrics converts a finished child's resource usage into the
// cpu_s and peak_rss_mb metrics. Linux reports ru_maxrss in KiB.
func rusageMetrics(ru *syscall.Rusage) (cpuS, peakRSSMB float64) {
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// percentile is the nearest-rank percentile p (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}
