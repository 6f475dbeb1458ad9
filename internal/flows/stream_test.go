package flows

import (
	"math"
	"sort"
	"testing"
	"time"

	"dctraffic/internal/det"
	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// streamRecords builds records with heavy five-tuple reuse so the
// inactivity-timeout merge logic actually fires, plus Start ties within
// a tuple to exercise the (Start, ID) ordering rules.
func streamRecords(t *testing.T, n int, horizon netsim.Time) []trace.FlowRecord {
	t.Helper()
	rng := stats.NewRNG(17).Fork("flows_stream_test")
	out := make([]trace.FlowRecord, n)
	for i := range out {
		start := netsim.Time(rng.Float64() * float64(horizon))
		var dur netsim.Time
		if rng.IntN(3) > 0 {
			dur = netsim.Time(rng.Float64() * float64(20*time.Second))
		}
		out[i] = trace.FlowRecord{
			ID:      netsim.FlowID(i),
			Src:     topology.ServerID(rng.IntN(8)),
			Dst:     topology.ServerID(rng.IntN(8)),
			SrcPort: uint16(rng.IntN(3)),
			DstPort: uint16(rng.IntN(3)),
			Start:   start,
			End:     start + dur,
			Bytes:   int64(1 + rng.IntN(1<<16)),
		}
	}
	// A few deliberate Start ties on the same tuple.
	for i := 0; i+1 < n; i += 97 {
		out[i+1].Start = out[i].Start
		out[i+1].End = out[i].End + netsim.Time(time.Second)
		out[i+1].Src, out[i+1].Dst = out[i].Src, out[i].Dst
		out[i+1].SrcPort, out[i+1].DstPort = out[i].SrcPort, out[i].DstPort
	}
	return out
}

func canonical(records []trace.FlowRecord) []trace.FlowRecord {
	out := make([]trace.FlowRecord, len(records))
	copy(out, records)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// The streaming reassembler must emit exactly what batch Reassemble
// produces, in the same canonical order, for several timeouts —
// including timeouts short enough that horizon finalization fires
// constantly.
func TestStreamReassemblerMatchesBatch(t *testing.T) {
	horizon := netsim.Time(5 * time.Minute)
	recs := streamRecords(t, 4000, horizon)
	for _, timeout := range []netsim.Time{0, netsim.Time(time.Second), netsim.Time(30 * time.Second), netsim.Time(10 * time.Minute)} {
		want := Reassemble(recs, timeout)
		var got []trace.FlowRecord
		sr := NewStreamReassembler(timeout, func(r trace.FlowRecord) { got = append(got, r) })
		for _, r := range canonical(recs) {
			sr.Feed(r)
		}
		sr.Close()
		if len(got) != len(want) {
			t.Fatalf("timeout %v: %d flows streamed, want %d", timeout, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("timeout %v: flow %d: %+v != %+v", timeout, i, got[i], want[i])
			}
		}
	}
}

// The pending set must stay bounded by the timeout horizon: flows
// whose end fell a timeout behind the watermark are emitted, not held.
func TestStreamReassemblerBoundedPending(t *testing.T) {
	timeout := netsim.Time(time.Second)
	var emitted int
	sr := NewStreamReassembler(timeout, func(trace.FlowRecord) { emitted++ })
	// Sequential short flows on distinct tuples, far apart in time: at
	// most a handful can be inside the horizon at once.
	peak := 0
	for i := 0; i < 1000; i++ {
		start := netsim.Time(i) * netsim.Time(time.Second)
		sr.Feed(trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(i % 50),
			Dst:   topology.ServerID((i + 1) % 50),
			Start: start,
			End:   start + netsim.Time(100*time.Millisecond),
			Bytes: 1,
		})
		if sr.Pending() > peak {
			peak = sr.Pending()
		}
	}
	sr.Close()
	if emitted != 1000 {
		t.Fatalf("emitted %d flows, want 1000", emitted)
	}
	if peak > 4 {
		t.Fatalf("pending peaked at %d; the horizon should keep it tiny", peak)
	}
}

// The tracker's CDFs and mode must agree with the batch inter-arrival
// functions: same sample multisets, hence identical query results under
// the canonical-order CDF.
func TestInterArrivalTrackerMatchesOffline(t *testing.T) {
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(23).Fork("ia_test")
	horizon := netsim.Time(2 * time.Minute)
	recs := make([]trace.FlowRecord, 3000)
	for i := range recs {
		start := netsim.Time(rng.Float64() * float64(horizon))
		recs[i] = trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(rng.IntN(top.NumHosts())),
			Dst:   topology.ServerID(rng.IntN(top.NumHosts())),
			Start: start,
			End:   start,
			Bytes: 1,
		}
	}
	wantCluster := stats.NewCDF(ClusterInterArrivals(recs))
	wantTor := stats.NewCDF(TorInterArrivals(recs, top))
	serverGaps := ServerInterArrivals(recs, top)
	wantServer := stats.NewCDF(serverGaps)
	wantMode := ModeSpacing(serverGaps, 2, 100, 196)

	it := NewInterArrivalTracker(top, -1)
	for _, r := range canonical(recs) {
		r := r
		it.Observe(&r)
	}

	check := func(name string, got *stats.StreamCDF, want *stats.CDF) {
		t.Helper()
		if int(got.N()) != want.N() {
			t.Fatalf("%s: %d samples, want %d", name, got.N(), want.N())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			if math.Float64bits(got.Quantile(q)) != math.Float64bits(want.Quantile(q)) {
				t.Fatalf("%s: Quantile(%g) %g != %g", name, q, got.Quantile(q), want.Quantile(q))
			}
		}
		gp, wp := got.Points(100), want.Points(100)
		if len(gp) != len(wp) {
			t.Fatalf("%s: %d points, want %d", name, len(gp), len(wp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("%s: point %d: %+v != %+v", name, i, gp[i], wp[i])
			}
		}
	}
	check("cluster", it.Cluster, wantCluster)
	check("tor", it.Tor, wantTor)
	check("server", it.Server, wantServer)
	if math.Float64bits(it.ModeMs()) != math.Float64bits(wantMode) {
		t.Fatalf("mode %g != %g", it.ModeMs(), wantMode)
	}
}

// Reassemble is the batch oracle of StreamReassembler: it applies the
// inactivity-timeout methodology (§3) to a whole record set. Records
// sharing a five-tuple whose gap is shorter than timeout merge into one
// flow; a longer silence starts a new flow. Pass timeout <= 0 for
// DefaultInactivityTimeout. The input is not modified; output is
// ordered by start time.
func Reassemble(records []trace.FlowRecord, timeout netsim.Time) []trace.FlowRecord {
	if timeout <= 0 {
		timeout = DefaultInactivityTimeout
	}
	byTuple := make(map[fiveTuple][]trace.FlowRecord)
	for _, r := range records {
		k := fiveTuple{r.Src, r.Dst, r.SrcPort, r.DstPort}
		byTuple[k] = append(byTuple[k], r)
	}
	var out []trace.FlowRecord
	for _, rs := range byTuple {
		// (Start, ID) order — the canonical trace order — so batch and
		// streaming reassembly see identical per-tuple sequences even
		// when records of one tuple tie on Start.
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Start != rs[j].Start {
				return rs[i].Start < rs[j].Start
			}
			return rs[i].ID < rs[j].ID
		})
		cur := rs[0]
		for _, r := range rs[1:] {
			if r.Start-cur.End < timeout {
				// Same flow continues.
				cur.Bytes += r.Bytes
				if r.End > cur.End {
					cur.End = r.End
				}
				continue
			}
			out = append(out, cur)
			cur = r
		}
		out = append(out, cur)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ClusterInterArrivals, ServerInterArrivals, TorInterArrivals and
// ModeSpacing are the batch oracles of InterArrivalTracker.

// interArrivalsOf computes successive gaps (milliseconds) of a sorted
// start-time sequence.
func interArrivalsOf(starts []netsim.Time) []float64 {
	if len(starts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		out = append(out, float64(starts[i]-starts[i-1])/float64(time.Millisecond))
	}
	return out
}

// ClusterInterArrivals returns the gaps (ms) between successive flow
// arrivals anywhere in the cluster — Figure 11's "all flows" curve.
func ClusterInterArrivals(records []trace.FlowRecord) []float64 {
	starts := make([]netsim.Time, len(records))
	for i, r := range records {
		starts[i] = r.Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return interArrivalsOf(starts)
}

// ServerInterArrivals returns gaps (ms) between successive flows from/to
// each cluster server, pooled over servers — Figure 11's server curve.
func ServerInterArrivals(records []trace.FlowRecord, top *topology.Topology) []float64 {
	perServer := make(map[topology.ServerID][]netsim.Time)
	add := func(s topology.ServerID, t netsim.Time) {
		if !top.IsExternal(s) {
			perServer[s] = append(perServer[s], t)
		}
	}
	for _, r := range records {
		add(r.Src, r.Start)
		if r.Dst != r.Src {
			add(r.Dst, r.Start)
		}
	}
	// Pool per-server gap lists in server order so the slice (and every
	// digest downstream of it) does not inherit map iteration order.
	var out []float64
	for _, s := range det.SortedKeys(perServer) {
		starts := perServer[s]
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		out = append(out, interArrivalsOf(starts)...)
	}
	return out
}

// TorInterArrivals returns gaps (ms) between successive flows traversing
// each ToR switch (flows with at least one endpoint in the rack), pooled
// over ToRs — Figure 11's ToR curve.
func TorInterArrivals(records []trace.FlowRecord, top *topology.Topology) []float64 {
	perTor := make(map[topology.RackID][]netsim.Time)
	for _, r := range records {
		rs, rd := top.Rack(r.Src), top.Rack(r.Dst)
		if rs >= 0 {
			perTor[rs] = append(perTor[rs], r.Start)
		}
		if rd >= 0 && rd != rs {
			perTor[rd] = append(perTor[rd], r.Start)
		}
	}
	// Same fixed pooling order as ServerInterArrivals, per ToR.
	var out []float64
	for _, tor := range det.SortedKeys(perTor) {
		starts := perTor[tor]
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		out = append(out, interArrivalsOf(starts)...)
	}
	return out
}

// ModeSpacing estimates the dominant periodic spacing (ms) in an
// inter-arrival sample by histogramming gaps in [loMs, capMs) and
// returning the most populated bin's center — used to verify the ~15 ms
// stop-and-go modes of Figure 11. Pass loMs of a couple of milliseconds
// to skip the batch of near-simultaneous flows a single application event
// emits (connection setup, parallel pulls), which is a separate
// phenomenon from the pacing-timer modes.
func ModeSpacing(gapsMs []float64, loMs, capMs float64, bins int) float64 {
	if len(gapsMs) == 0 || bins <= 0 || capMs <= loMs {
		return 0
	}
	h := stats.NewHistogram(loMs, capMs, bins)
	for _, g := range gapsMs {
		h.Add(g)
	}
	return histogramMode(h)
}
