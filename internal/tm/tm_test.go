package tm

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 100)
	m.Add(0, 1, 50)
	m.Add(2, 3, 25)
	m.Add(1, 2, 0)  // ignored
	m.Add(3, 0, -5) // ignored
	if m.At(0, 1) != 150 || m.At(2, 3) != 25 || m.At(1, 0) != 0 {
		t.Fatal("Add/At broken")
	}
	if m.NonZero() != 2 || m.Total() != 175 {
		t.Fatalf("NonZero=%d Total=%v", m.NonZero(), m.Total())
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Add(2, 0, 1)
}

// change is the Figure 10 metric from earlier to later, as the
// analysis computes it: one lag-1 ChangeRing step.
func change(earlier, later *Matrix) float64 {
	ring := NewChangeRing(1)
	ring.Push(earlier)
	ring.Push(later)
	return ring.Changes(0)[0]
}

// clone copies m entry by entry.
func clone(m *Matrix) *Matrix {
	c := NewMatrix(m.N())
	m.ForEach(func(src, dst int, bytes float64) { c.Add(src, dst, bytes) })
	return c
}

func TestNormalizedChange(t *testing.T) {
	a := NewMatrix(3)
	a.Add(0, 1, 100)
	if change(a, clone(a)) != 0 {
		t.Fatal("identical matrices should have zero change")
	}
	// Same total, different participants: change = 200/100 = 2.
	c := NewMatrix(3)
	c.Add(1, 2, 100)
	if got := change(a, c); got != 2 {
		t.Fatalf("participant flux change = %v, want 2", got)
	}
	// Doubling: |200-100|/100 = 1.
	d := NewMatrix(3)
	d.Add(0, 1, 200)
	if got := change(a, d); got != 1 {
		t.Fatalf("doubling change = %v, want 1", got)
	}
	var empty = NewMatrix(3)
	if change(empty, a) != 0 {
		t.Fatal("empty baseline should yield 0")
	}
}

func rec(src, dst topology.ServerID, bytes int64, start, end netsim.Time) trace.FlowRecord {
	return trace.FlowRecord{Src: src, Dst: dst, Bytes: bytes, Start: start, End: end}
}

func TestServerMatrixWindow(t *testing.T) {
	records := []trace.FlowRecord{
		rec(0, 1, 1000, 0, 10*time.Second),              // fully inside
		rec(2, 3, 1000, 5*time.Second, 15*time.Second),  // half inside
		rec(4, 5, 1000, 20*time.Second, 30*time.Second), // outside
	}
	m := ServerMatrix(records, 10, 0, 10*time.Second)
	if m.At(0, 1) != 1000 {
		t.Fatalf("full flow = %v", m.At(0, 1))
	}
	if math.Abs(m.At(2, 3)-500) > 1 {
		t.Fatalf("half flow = %v, want 500", m.At(2, 3))
	}
	if m.At(4, 5) != 0 {
		t.Fatal("outside flow leaked into window")
	}
}

// binSeries aggregates records into host-level TMs at fixed bins
// covering [0, horizon), one ServerMatrix per SeriesBinWindow: Figure
// 10's bins as the analysis sweep builds them.
func binSeries(records []trace.FlowRecord, numHosts int, bin, horizon netsim.Time) []*Matrix {
	out := make([]*Matrix, int((horizon+bin-1)/bin))
	for i := range out {
		from, to := SeriesBinWindow(i, bin, horizon)
		out[i] = ServerMatrix(records, numHosts, from, to)
	}
	return out
}

func TestServerSeriesSpreading(t *testing.T) {
	records := []trace.FlowRecord{
		rec(0, 1, 300, 0, 30*time.Second),
		rec(1, 2, 50, 35*time.Second, 35*time.Second), // instantaneous
	}
	series := binSeries(records, 5, 10*time.Second, 40*time.Second)
	if len(series) != 4 {
		t.Fatalf("series length %d, want 4", len(series))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(series[i].At(0, 1)-100) > 1e-9 {
			t.Fatalf("bin %d = %v, want 100", i, series[i].At(0, 1))
		}
	}
	if series[3].At(1, 2) != 50 {
		t.Fatalf("instantaneous flow lost: %v", series[3].At(1, 2))
	}
}

func TestSeriesConservesBytes(t *testing.T) {
	r := stats.NewRNG(3)
	var records []trace.FlowRecord
	var want float64
	for i := 0; i < 200; i++ {
		start := netsim.Time(r.IntN(100)) * time.Second
		dur := netsim.Time(1+r.IntN(50)) * time.Second
		b := int64(1 + r.IntN(100000))
		records = append(records, rec(topology.ServerID(r.IntN(8)), topology.ServerID(r.IntN(8)), b, start, start+dur))
		want += float64(b)
	}
	series := binSeries(records, 8, 10*time.Second, 200*time.Second)
	got := 0.0
	for _, m := range series {
		got += m.Total()
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("series total %v, want %v", got, want)
	}
}

func TestTorMatrixExcludesIntraRackAndExternal(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	ext := topology.ServerID(top.NumServers())
	records := []trace.FlowRecord{
		rec(0, 1, 1000, 0, time.Second),   // same rack: excluded
		rec(0, 15, 1000, 0, time.Second),  // rack 0 -> rack 1
		rec(ext, 0, 1000, 0, time.Second), // external: excluded
	}
	m := TorMatrix(records, top, 0, time.Second)
	if m.Total() != 1000 || m.At(0, 1) != 1000 {
		t.Fatalf("ToR TM wrong: total=%v", m.Total())
	}
	for r := 0; r < top.NumRacks(); r++ {
		if m.At(r, r) != 0 {
			t.Fatal("ToR TM diagonal must be zero")
		}
	}
}

func TestChangeSeries(t *testing.T) {
	a := NewMatrix(3)
	a.Add(0, 1, 100)
	b := NewMatrix(3)
	b.Add(0, 1, 100)
	c := NewMatrix(3)
	c.Add(1, 2, 100)
	out := ChangeSeries([]*Matrix{a, b, c}, 1)
	if len(out) != 2 || out[0] != 0 || out[1] != 2 {
		t.Fatalf("ChangeSeries = %v", out)
	}
	if got := ChangeSeries([]*Matrix{a}, 1); got != nil {
		t.Fatal("short series should give nil")
	}
	mag := MagnitudeSeries([]*Matrix{a, c})
	if mag[0] != 100 || mag[1] != 100 {
		t.Fatalf("MagnitudeSeries = %v", mag)
	}
}

func TestComputeEntryStats(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig()) // 8 racks x 10
	m := NewMatrix(top.NumHosts())
	m.Add(0, 1, math.Exp(10)) // within rack 0
	m.Add(0, 2, math.Exp(12)) // within rack 0
	m.Add(0, 15, math.Exp(8)) // across
	es := ComputeEntryStats(m, top)
	if len(es.WithinRack) != 2 || len(es.AcrossRack) != 1 {
		t.Fatalf("entry split: %d within, %d across", len(es.WithinRack), len(es.AcrossRack))
	}
	// 8 racks * 10*9 = 720 within pairs, 2 non-zero.
	if math.Abs(es.PZeroWithinRack-(1-2.0/720)) > 1e-12 {
		t.Fatalf("PZeroWithinRack = %v", es.PZeroWithinRack)
	}
	if es.PZeroAcrossRack <= es.PZeroWithinRack {
		t.Fatal("across-rack zeros should dominate in this matrix")
	}
	within, across := es.LogHistograms(30)
	if len(within) != 30 || len(across) != 30 {
		t.Fatal("histogram sizing broken")
	}
}

func TestComputeCorrespondents(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	m := NewMatrix(top.NumHosts())
	// Server 0 talks to 3 in-rack peers and 4 out-of-rack servers.
	m.Add(0, 1, 1)
	m.Add(0, 2, 1)
	m.Add(3, 0, 1) // reverse direction still counts
	m.Add(0, 15, 1)
	m.Add(0, 25, 1)
	m.Add(35, 0, 1)
	m.Add(0, 45, 1)
	cs := ComputeCorrespondents(m, top)
	if math.Abs(cs.FracWithin[0]-3.0/9) > 1e-12 {
		t.Fatalf("FracWithin[0] = %v, want 3/9", cs.FracWithin[0])
	}
	if math.Abs(cs.FracAcross[0]-4.0/70) > 1e-12 {
		t.Fatalf("FracAcross[0] = %v, want 4/70", cs.FracAcross[0])
	}
}

func TestSummarizePatterns(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	m := NewMatrix(top.NumHosts())
	m.Add(0, 1, 700)  // within rack
	m.Add(0, 15, 200) // rack 0 -> rack 1, same VLAN
	m.Add(0, 75, 50)  // rack 0 -> rack 7
	ext := top.NumServers()
	m.Add(ext, 0, 50) // external ingest
	ps := SummarizePatterns(m, top)
	if math.Abs(ps.WithinRackFraction-0.7) > 1e-12 {
		t.Fatalf("WithinRackFraction = %v", ps.WithinRackFraction)
	}
	if math.Abs(ps.WithinVLANFraction-0.9) > 1e-12 {
		t.Fatalf("WithinVLANFraction = %v", ps.WithinVLANFraction)
	}
	if math.Abs(ps.ExternalFraction-0.05) > 1e-12 {
		t.Fatalf("ExternalFraction = %v", ps.ExternalFraction)
	}
	empty := SummarizePatterns(NewMatrix(top.NumHosts()), top)
	if empty.WithinRackFraction != 0 {
		t.Fatal("empty matrix should summarize to zeros")
	}
}

// Property: the normalized change is 0 for identical matrices and
// equals 2 when matrices have equal totals and disjoint support.
func TestNormalizedChangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 4 + r.IntN(6)
		a := NewMatrix(n)
		b := NewMatrix(n)
		total := 0.0
		for i := 0; i < 5; i++ {
			v := 1 + r.Float64()*100
			a.Add(r.IntN(n/2), r.IntN(n), v)
			total += v
		}
		// b: same total, support shifted into rows >= n/2 (disjoint).
		remaining := total
		for i := 0; i < 4; i++ {
			v := remaining / 4
			b.Add(n/2+r.IntN(n-n/2), r.IntN(n), v)
		}
		if change(a, clone(a)) != 0 {
			return false
		}
		got := change(a, b)
		return math.Abs(got-2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// windowFixture builds a canonical-order record set, some records
// instantaneous, and a WindowView holding all of it, sealed at horizon.
func windowFixture(t *testing.T, n int, horizon netsim.Time) ([]trace.FlowRecord, *trace.WindowView, *topology.Topology) {
	t.Helper()
	top := topology.MustNew(topology.SmallConfig())
	rng := stats.NewRNG(11).Fork("tm_view_test")
	recs := make([]trace.FlowRecord, n)
	for i := range recs {
		start := netsim.Time(rng.Float64() * float64(horizon))
		var dur netsim.Time
		if rng.IntN(5) > 0 { // leave some instantaneous records
			dur = netsim.Time(rng.Float64() * float64(time.Minute))
		}
		recs[i] = trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(rng.IntN(top.NumHosts())),
			Dst:   topology.ServerID(rng.IntN(top.NumHosts())),
			Start: start,
			End:   start + dur,
			Bytes: int64(1 + rng.IntN(1<<24)),
		}
	}
	slices.SortFunc(recs, func(a, b trace.FlowRecord) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	wv := trace.NewWindowView()
	for _, r := range recs {
		if err := wv.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wv.Seal(horizon)
	return recs, wv, top
}

// matricesIdentical demands bit-identical entries.
func matricesIdentical(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.N() != want.N() || got.NonZero() != want.NonZero() {
		t.Fatalf("%s: shape %d/%d entries, want %d/%d", name, got.N(), got.NonZero(), want.N(), want.NonZero())
	}
	want.ForEach(func(src, dst int, bytes float64) {
		if g := got.At(src, dst); g != bytes {
			t.Fatalf("%s: entry (%d,%d) = %v, want %v", name, src, dst, g, bytes)
		}
	})
}

// ServerMatrix over a window's WindowView slice — how the analysis
// sweep builds every server TM — must equal ServerMatrix over the whole
// record set, bit for bit: the slice drops no record that carries bytes
// into the window and keeps the canonical accumulation order.
func TestServerMatrixViewMatchesFullScan(t *testing.T) {
	horizon := netsim.Time(10 * time.Minute)
	recs, wv, top := windowFixture(t, 4000, horizon)
	windows := [][2]netsim.Time{
		{0, horizon},
		{horizon / 2, horizon/2 + 10*time.Second},
		{horizon - time.Second, horizon},
		{horizon / 3, horizon/3 + time.Minute},
	}
	for _, w := range windows {
		got := ServerMatrix(wv.Slice(w[0], w[1]), top.NumHosts(), w[0], w[1])
		want := ServerMatrix(recs, top.NumHosts(), w[0], w[1])
		matricesIdentical(t, "server", got, want)
	}
}

// The same for TorMatrix, the tomography windows' ground truth.
func TestTorMatrixViewMatchesFullScan(t *testing.T) {
	horizon := netsim.Time(10 * time.Minute)
	recs, wv, top := windowFixture(t, 4000, horizon)
	from, to := horizon/4, horizon/4+30*time.Second
	matricesIdentical(t, "tor", TorMatrix(wv.Slice(from, to), top, from, to), TorMatrix(recs, top, from, to))
}
