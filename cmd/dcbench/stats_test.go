package main

import (
	"math"
	"syscall"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarize(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
		wantN       int
	}{
		{xs: []float64{7}, q1: 7, med: 7, q3: 7, wantN: 1},
		{xs: []float64{2, 1}, q1: 0.75, med: 1.5, q3: 2.25, wantN: 2},
		{xs: []float64{4, 1, 3, 2}, q1: 1.25, med: 2.5, q3: 3.75, wantN: 4},
		{xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, q1: 2.75, med: 5.5, q3: 8.25, wantN: 10},
		{xs: []float64{1, 2, 3, 4, 5}, q1: 1.5, med: 3, q3: 4.5, wantN: 5},
	}
	for _, c := range cases {
		s := summarize(c.xs, "s")
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) || s.N != c.wantN || s.Unit != "s" {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v n %d", c.xs, s, c.q1, c.med, c.q3, c.wantN)
		}
	}
	if s := summarize(nil, "s"); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
	xs := []float64{3, 1, 2}
	summarize(xs, "s")
	if xs[0] != 3 {
		t.Error("summarize reordered its input")
	}
}

func TestCheckBound(t *testing.T) {
	base := summary{Median: 10, Q1: 9.8, Q3: 10.2, N: 10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m - 0.1, Q3: m + 0.1, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m - 2, Q3: m + 2, N: 10} }
	cases := []struct {
		name        string
		base, cur   summary
		lowerBetter bool
		want        verdict
	}{
		{"unchanged", base, tight(10.1), true, verdictOK},
		{"worse than bound", base, tight(11.5), true, verdictWorse},
		{"better", base, tight(8), true, verdictOK},
		{"higher-is-better drop", base, tight(8.5), false, verdictWorse},
		{"higher-is-better rise", base, tight(12), false, verdictOK},
		{"spread wider than bound", base, wide(10.5), true, verdictUnresolved},
		{"wide but every rep better", wide(20), tight(10), true, verdictOK},
	}
	for _, c := range cases {
		if got, _ := checkBound(c.base, c.cur, 0.1, 0, c.lowerBetter); got != c.want {
			t.Errorf("%s: checkBound = %s, want %s", c.name, got, c.want)
		}
	}
	if _, change := checkBound(base, tight(11), 0.1, 0, true); !near(change, 0.1) {
		t.Errorf("change = %v, want 0.1", change)
	}

	// A millisecond-scale setup_s: +50 % and a wide spread, but the
	// median moved 0.75 ms, under the 0.05 s floor.
	setupBase := summary{Median: 0.0015, Q1: 0.0012, Q3: 0.0019, N: 10}
	setupCur := summary{Median: 0.00225, Q1: 0.0015, Q3: 0.0030, N: 10}
	floor := absFloors["setup_s"]
	if got, _ := checkBound(setupBase, setupCur, 0.25, floor, true); got != verdictOK {
		t.Errorf("setup_s under the floor: checkBound = %s, want %s", got, verdictOK)
	}
	if got, _ := checkBound(setupBase, setupCur, 0.25, 0, true); got != verdictWorse {
		t.Errorf("setup_s without a floor: checkBound = %s, want %s", got, verdictWorse)
	}
	// Past the floor the relative bound applies again.
	setupSlow := summary{Median: 0.08, Q1: 0.079, Q3: 0.081, N: 10}
	if got, _ := checkBound(setupBase, setupSlow, 0.25, floor, true); got != verdictWorse {
		t.Errorf("setup_s past the floor: checkBound = %s, want %s", got, verdictWorse)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"wall_s", "fused-laptop", "tomo.pivots_mean", "0x", "A.b-c_d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "a%", "é", long} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q breaks the naming rule", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetricDefs...) {
		if !validName(d.name) {
			t.Errorf("metric name %q breaks the naming rule", d.name)
		}
	}
}

func TestRusageMetrics(t *testing.T) {
	ru := syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 500000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 250000},
		Maxrss: 3 << 10, // KiB
	}
	cpu, rss := rusageMetrics(&ru)
	if !near(cpu, 1.75) || !near(rss, 3) {
		t.Errorf("rusageMetrics = %v s, %v MiB; want 1.75 s, 3 MiB", cpu, rss)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := withSelfTimes([]span{
		{ID: 1, Name: "op", StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, Name: "a", StartS: 1, EndS: 4},
		{ID: 3, Parent: 1, Name: "b", StartS: 3, EndS: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartS: 9, EndS: 12}, // runs past its parent
		{ID: 5, Parent: 3, Name: "b1", StartS: 3, EndS: 4},
	})
	want := []float64{10 - 5 - 1, 3, 2, 3, 1}
	for i, sp := range spans {
		if !near(sp.SelfS, want[i]) {
			t.Errorf("span %s self = %v, want %v", sp.Name, sp.SelfS, want[i])
		}
	}
}
