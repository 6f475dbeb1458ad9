package tm

import (
	"math"
	"slices"
	"testing"

	"dctraffic/internal/stats"
)

// randomSeries builds a deterministic sequence of sparse matrices.
func randomSeries(n, bins int) []*Matrix {
	rng := stats.NewRNG(9).Fork("ring_test")
	out := make([]*Matrix, bins)
	for b := range out {
		m := NewMatrix(n)
		for e := 0; e < 30; e++ {
			m.Add(rng.IntN(n), rng.IntN(n), 1+rng.Float64()*1e6)
		}
		out[b] = m
	}
	return out
}

// ChangeRing must reproduce MagnitudeSeries and ChangeSeries
// bit-for-bit while holding only max(lag) matrices — the equivalence
// that lets Figure 10 stream.
func TestChangeRingMatchesOfflineSeries(t *testing.T) {
	series := randomSeries(16, 40)
	ring := NewChangeRing(1, 10)
	for _, m := range series {
		ring.Push(m)
	}
	if ring.N() != len(series) {
		t.Fatalf("N = %d, want %d", ring.N(), len(series))
	}

	wantMag := MagnitudeSeries(series)
	gotMag := ring.Magnitude()
	if len(wantMag) != len(gotMag) {
		t.Fatalf("magnitude length %d, want %d", len(gotMag), len(wantMag))
	}
	for i := range wantMag {
		if math.Float64bits(wantMag[i]) != math.Float64bits(gotMag[i]) {
			t.Fatalf("magnitude[%d]: %g != %g", i, gotMag[i], wantMag[i])
		}
	}

	for li, lag := range []int{1, 10} {
		want := ChangeSeries(series, lag)
		got := ring.Changes(li)
		if len(want) != len(got) {
			t.Fatalf("lag %d: length %d, want %d", lag, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("lag %d: change[%d]: %g != %g", lag, i, got[i], want[i])
			}
		}
	}
}

// Fewer bins than the lag yields an empty (nil) churn series, matching
// ChangeSeries's contract.
func TestChangeRingShortSeries(t *testing.T) {
	series := randomSeries(8, 5)
	ring := NewChangeRing(10)
	for _, m := range series {
		ring.Push(m)
	}
	if got := ring.Changes(0); got != nil {
		t.Fatalf("lag beyond series length should give nil, got %v", got)
	}
	if want := ChangeSeries(series, 10); want != nil {
		t.Fatalf("offline reference disagrees: %v", want)
	}
}

// MagnitudeSeries returns the total bytes of each matrix in a series —
// the top panel of Figure 10 — the offline oracle of ChangeRing.Magnitude.
func MagnitudeSeries(series []*Matrix) []float64 {
	out := make([]float64, len(series))
	for i, m := range series {
		out[i] = m.Total()
	}
	return out
}

// ChangeSeries returns the normalized change from series[i] to
// series[i+lag] for all valid i — the bottom panel of Figure 10 (lag 1
// at a 10 s bin gives τ=10 s; lag 10 gives τ=100 s) — the offline
// oracle of ChangeRing.Changes.
func ChangeSeries(series []*Matrix, lag int) []float64 {
	if lag <= 0 {
		panic("tm: lag must be positive")
	}
	if len(series) <= lag {
		return nil
	}
	out := make([]float64, 0, len(series)-lag)
	for i := 0; i+lag < len(series); i++ {
		out = append(out, normalizedChangeRef(series[i], series[i+lag]))
	}
	return out
}

// normalizedChangeRef is the Figure 10 metric as it stood before
// ChangeRing shared its loops, with its own key sort and total: an
// oracle that shares no code with the ring.
func normalizedChangeRef(earlier, later *Matrix) float64 {
	denom := totalRef(earlier)
	if denom == 0 {
		return 0
	}
	num := 0.0
	for _, k := range sortedKeysRef(earlier) {
		num += math.Abs(later.entries[k] - earlier.entries[k])
	}
	for _, k := range sortedKeysRef(later) {
		if _, ok := earlier.entries[k]; !ok {
			num += later.entries[k]
		}
	}
	return num / denom
}

func sortedKeysRef(m *Matrix) []int64 {
	keys := make([]int64, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func totalRef(m *Matrix) float64 {
	t := 0.0
	for _, k := range sortedKeysRef(m) {
		t += m.entries[k]
	}
	return t
}

// The ring against the reference, bit for bit, at lags 1 and 10 over
// random series whose bins vary in fill and include empty matrices: an
// empty earlier bin (denominator 0) and an empty later one.
func TestChangeRingMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed).Fork("ring_ref")
		series := make([]*Matrix, 60)
		for b := range series {
			m := NewMatrix(24)
			if b%13 != 3 { // bins 3, 16, 29, 42, 55 stay empty
				for e := rng.IntN(80); e > 0; e-- {
					m.Add(rng.IntN(24), rng.IntN(24), rng.ExpFloat64()*1e6)
				}
			}
			series[b] = m
		}
		lags := []int{1, 10}
		ring := NewChangeRing(lags...)
		for _, m := range series {
			ring.Push(m)
		}
		for i, m := range series {
			if got, want := ring.Magnitude()[i], totalRef(m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: magnitude[%d]: %g != %g", seed, i, got, want)
			}
		}
		for li, lag := range lags {
			got := ring.Changes(li)
			if len(got) != len(series)-lag {
				t.Fatalf("seed %d lag %d: %d changes, want %d", seed, lag, len(got), len(series)-lag)
			}
			zeroDenom := 0
			for i := range got {
				if totalRef(series[i]) == 0 {
					zeroDenom++
				}
				want := normalizedChangeRef(series[i], series[i+lag])
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d lag %d: change[%d]: %g != %g", seed, lag, i, got[i], want)
				}
			}
			if zeroDenom == 0 {
				t.Fatalf("seed %d lag %d: no empty earlier bin exercised", seed, lag)
			}
		}
	}
}
