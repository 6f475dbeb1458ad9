package flows

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

func fr(id int64, src, dst topology.ServerID, sport uint16, bytes int64, start, end netsim.Time) trace.FlowRecord {
	return trace.FlowRecord{ID: netsim.FlowID(id), Src: src, Dst: dst, SrcPort: sport, DstPort: 443,
		Bytes: bytes, Start: start, End: end}
}

func TestReassembleMergesWithinTimeout(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 5000, 100, 0, 10*time.Second),
		fr(2, 0, 1, 5000, 200, 30*time.Second, 40*time.Second),   // gap 20s < 60s: merge
		fr(3, 0, 1, 5000, 400, 200*time.Second, 210*time.Second), // gap 160s: new flow
	}
	out := Reassemble(records, 60*time.Second)
	if len(out) != 2 {
		t.Fatalf("got %d flows, want 2", len(out))
	}
	if out[0].Bytes != 300 || out[0].End != 40*time.Second {
		t.Fatalf("merged flow wrong: %+v", out[0])
	}
	if out[1].Bytes != 400 {
		t.Fatalf("second flow wrong: %+v", out[1])
	}
}

func TestReassembleDistinguishesTuples(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 5000, 100, 0, time.Second),
		fr(2, 0, 1, 5001, 100, 2*time.Second, 3*time.Second), // different sport
		fr(3, 0, 2, 5000, 100, 2*time.Second, 3*time.Second), // different dst
	}
	out := Reassemble(records, 60*time.Second)
	if len(out) != 3 {
		t.Fatalf("got %d flows, want 3", len(out))
	}
}

func TestReassembleDefaultTimeout(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 5000, 1, 0, time.Second),
		fr(2, 0, 1, 5000, 1, 30*time.Second, 31*time.Second),
	}
	if out := Reassemble(records, 0); len(out) != 1 {
		t.Fatalf("default timeout should merge a 29s gap, got %d flows", len(out))
	}
}

func TestReassembleSortedOutput(t *testing.T) {
	records := []trace.FlowRecord{
		fr(2, 3, 4, 6000, 1, 50*time.Second, 51*time.Second),
		fr(1, 0, 1, 5000, 1, 0, time.Second),
	}
	out := Reassemble(records, time.Second)
	if out[0].Start > out[1].Start {
		t.Fatal("output not sorted by start")
	}
}

// summarize feeds records to a SummaryTracker over a trace of the given
// duration.
func summarize(records []trace.FlowRecord, duration netsim.Time) *SummaryTracker {
	st := NewSummaryTracker(duration, 0)
	for i := range records {
		st.Observe(&records[i])
	}
	return st
}

func TestDurationCDFs(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 1, 10, 0, time.Second),      // 1s, 10 bytes
		fr(2, 0, 2, 2, 10, 0, 2*time.Second),    // 2s
		fr(3, 0, 3, 3, 980, 0, 100*time.Second), // 100s, carries most bytes
	}
	st := summarize(records, time.Hour)
	if p := st.ByFlows.P(2); math.Abs(p-2.0/3) > 1e-9 {
		t.Fatalf("ByFlows.P(2) = %v", p)
	}
	if p := st.ByBytes.P(2); math.Abs(p-0.02) > 1e-9 {
		t.Fatalf("ByBytes.P(2) = %v, want 0.02", p)
	}
}

func TestRateCDF(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 1, 125_000, 0, time.Second),   // 1 Mbps
		fr(2, 0, 2, 2, 1_250_000, 0, time.Second), // 10 Mbps
		fr(3, 0, 3, 3, 5, 0, 0),                   // zero duration: skipped
	}
	c := summarize(records, time.Hour).Rates
	if c.N() != 2 {
		t.Fatalf("rate samples = %d, want 2", c.N())
	}
	if q := c.Quantile(0.5); math.Abs(q-1) > 1e-9 {
		t.Fatalf("median rate = %v Mbps, want 1", q)
	}
}

func TestClusterInterArrivals(t *testing.T) {
	records := []trace.FlowRecord{
		fr(1, 0, 1, 1, 1, 0, time.Second),
		fr(2, 0, 2, 2, 1, 15*time.Millisecond, time.Second),
		fr(3, 0, 3, 3, 1, 45*time.Millisecond, time.Second),
	}
	gaps := ClusterInterArrivals(records)
	if len(gaps) != 2 || gaps[0] != 15 || gaps[1] != 30 {
		t.Fatalf("gaps = %v", gaps)
	}
	if got := ClusterInterArrivals(records[:1]); got != nil {
		t.Fatal("single flow has no inter-arrivals")
	}
}

func TestServerAndTorInterArrivals(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	records := []trace.FlowRecord{
		fr(1, 0, 15, 1, 1, 0, time.Second),                    // server 0 & 15, racks 0 & 1
		fr(2, 0, 25, 2, 1, 10*time.Millisecond, time.Second),  // server 0 again: 10ms gap
		fr(3, 15, 35, 3, 1, 20*time.Millisecond, time.Second), // server 15 again: 20ms gap
	}
	sg := ServerInterArrivals(records, top)
	// Server 0: gap 10; server 15: gap 20. Others have single arrivals.
	if len(sg) != 2 {
		t.Fatalf("server gaps = %v", sg)
	}
	tg := TorInterArrivals(records, top)
	// Rack 0: arrivals at 0,10 -> gap 10. Rack 1: 0,20 -> 20. Rack 2: 10;
	// rack 3: 20 (single each).
	if len(tg) != 2 {
		t.Fatalf("tor gaps = %v", tg)
	}
	// External endpoints are ignored.
	ext := topology.ServerID(top.NumServers())
	extRecords := []trace.FlowRecord{
		fr(1, ext, 0, 1, 1, 0, time.Second),
		fr(2, ext, 0, 2, 1, time.Millisecond, time.Second),
	}
	if got := ServerInterArrivals(extRecords, top); len(got) != 1 {
		t.Fatalf("expected only server-0 gap, got %v", got)
	}
}

func TestArrivalRate(t *testing.T) {
	var records []trace.FlowRecord
	for i := 0; i < 100; i++ {
		records = append(records, fr(int64(i), 0, 1, uint16(i), 1, netsim.Time(i)*100*time.Millisecond, time.Hour))
	}
	rate := summarize(records, 10*time.Second).Summary().ArrivalRatePerSec
	if rate != 10 {
		t.Fatalf("arrival rate = %v, want 10/s", rate)
	}
	if rate := summarize(records, 5*time.Second).Summary().ArrivalRatePerSec; rate != 10 {
		t.Fatalf("arrival rate over the first 5 s = %v, want 10/s (later starts not counted)", rate)
	}
	if summarize(records, 0).Summary().ArrivalRatePerSec != 0 {
		t.Fatal("zero horizon should give 0")
	}
}

func TestSummarize(t *testing.T) {
	var records []trace.FlowRecord
	// 90 short flows with few bytes, 10 long flows.
	for i := 0; i < 90; i++ {
		records = append(records, fr(int64(i), 0, 1, uint16(i), 1000, 0, 2*time.Second))
	}
	for i := 0; i < 10; i++ {
		records = append(records, fr(int64(100+i), 0, 2, uint16(200+i), 1_000_000, 0, 300*time.Second))
	}
	s := summarize(records, time.Hour).Summary()
	if s.NumFlows != 100 {
		t.Fatalf("NumFlows = %d", s.NumFlows)
	}
	if math.Abs(s.FracShorterThan10s-0.9) > 1e-9 {
		t.Fatalf("FracShorterThan10s = %v", s.FracShorterThan10s)
	}
	if math.Abs(s.FracLongerThan200s-0.1) > 1e-9 {
		t.Fatalf("FracLongerThan200s = %v", s.FracLongerThan200s)
	}
	// Bytes: 90*1000 vs 10*1e6 — long flows dominate bytes.
	if s.BytesInFlowsUnder25s > 0.01 {
		t.Fatalf("BytesInFlowsUnder25s = %v", s.BytesInFlowsUnder25s)
	}
}

func TestModeSpacing(t *testing.T) {
	var gaps []float64
	for i := 0; i < 100; i++ {
		gaps = append(gaps, 15+0.5*float64(i%3-1)) // cluster near 15ms
	}
	for i := 0; i < 10; i++ {
		gaps = append(gaps, float64(i*7)) // noise
	}
	mode := ModeSpacing(gaps, 2, 100, 98)
	if mode < 14 || mode > 16 {
		t.Fatalf("mode = %v, want ~15", mode)
	}
	if ModeSpacing(nil, 2, 100, 98) != 0 {
		t.Fatal("empty gaps should give 0")
	}
}

// Property: reassembly conserves bytes and never increases flow count.
func TestReassembleConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		var records []trace.FlowRecord
		var want int64
		n := 1 + r.IntN(40)
		for i := 0; i < n; i++ {
			b := int64(1 + r.IntN(10000))
			start := netsim.Time(r.IntN(300)) * time.Second
			records = append(records, fr(int64(i),
				topology.ServerID(r.IntN(4)), topology.ServerID(r.IntN(4)),
				uint16(5000+r.IntN(3)), b, start, start+time.Second))
			want += b
		}
		out := Reassemble(records, 60*time.Second)
		if len(out) > len(records) {
			return false
		}
		var got int64
		for _, o := range out {
			got += o.Bytes
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReassemble ensures arbitrary record sets never panic the
// reconstruction and always conserve bytes.
func FuzzReassemble(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), int64(100), int64(0), int64(1000))
	f.Fuzz(func(t *testing.T, id int64, src, dst uint8, bytes, start, end int64) {
		if bytes < 0 {
			bytes = -bytes
		}
		recs := []trace.FlowRecord{
			{ID: netsim.FlowID(id), Src: topology.ServerID(src), Dst: topology.ServerID(dst),
				Bytes: bytes, Start: netsim.Time(start), End: netsim.Time(end)},
			{ID: netsim.FlowID(id + 1), Src: topology.ServerID(src), Dst: topology.ServerID(dst),
				Bytes: bytes / 2, Start: netsim.Time(end), End: netsim.Time(end + 5)},
		}
		out := Reassemble(recs, 0)
		var want, got int64
		for _, r := range recs {
			want += r.Bytes
		}
		for _, r := range out {
			got += r.Bytes
		}
		if got != want {
			t.Fatalf("bytes not conserved: %d vs %d", got, want)
		}
	})
}
