package congestion

import (
	"math"
	"slices"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// detectSeries is the oracle EpisodeTracker replaced: Detect's one-pass
// scan of each link's finished bins, over per-link bin series.
func detectSeries(bin netsim.Time, threshold float64, links []linkScan, series func(topology.LinkID) []float64) []Episode {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	var out []Episode
	for _, l := range links {
		bytes := series(l.id)
		capBytesPerBin := l.capBin
		runStart := -1
		for i := 0; i <= len(bytes); i++ {
			hot := i < len(bytes) && capBytesPerBin > 0 && bytes[i]/capBytesPerBin >= threshold
			if hot && runStart < 0 {
				runStart = i
			}
			if !hot && runStart >= 0 {
				out = append(out, Episode{
					Link:  l.id,
					Start: netsim.Time(runStart) * bin,
					End:   netsim.Time(i) * bin,
				})
				runStart = -1
			}
		}
	}
	return out
}

// TestEpisodeTrackerFollowsNetwork advances a tracker at the network's
// last accrual between event batches and drops the bins it has scanned,
// as a fused run does. It checks that the episodes equal the oracle scan
// of an identical network's finished counters, that the open run is
// indexed before it closes, and that the kept bins stay few.
func TestEpisodeTrackerFollowsNetwork(t *testing.T) {
	net, top := saturate(t)
	twin, _ := saturate(t)
	src, dst := top.RackServers(0), top.RackServers(2)
	for i := 0; i < 5; i++ {
		net.StartFlow(src[i], dst[i], 312_500_000, netsim.FlowTag{}, nil)
		twin.StartFlow(src[i], dst[i], 312_500_000, netsim.FlowTag{}, nil)
	}
	st := net.Stats()
	tr := NewEpisodeTracker(st, top, 0, nil)
	sawOpen := false
	for at := 500 * time.Millisecond; at <= 20*time.Second; at += 500 * time.Millisecond {
		net.Run(at)
		tr.Advance(int(net.LastAccrual() / st.BinSize()))
		st.DropBelow(tr.Final())
		for _, e := range tr.Index().Link(top.TorUplink(0)) {
			sawOpen = sawOpen || e.End == openEnd
		}
		for _, id := range top.InterSwitchLinks() {
			if n := len(st.Bytes(id)); n > 2 {
				t.Fatalf("at %v link %d keeps %d bins above the frontier %d", at, id, n, tr.Final())
			}
		}
	}
	net.RunAll()
	twin.RunAll()
	tr.Close()
	if st.First() == 0 {
		t.Fatal("no bin was dropped")
	}
	var scans []linkScan
	for _, id := range top.InterSwitchLinks() {
		scans = append(scans, linkScan{id: id, capBin: top.Link(id).CapacityBps / 8 * st.BinSize().Seconds()})
	}
	want := detectSeries(st.BinSize(), 0, scans, twin.Stats().Bytes)
	if got := tr.Episodes(); !slices.Equal(got, want) || len(want) == 0 {
		t.Fatalf("tracked episodes %v, oracle %v", got, want)
	}
	if !sawOpen {
		t.Fatal("the ToR uplink's run was never indexed open before it closed")
	}
}

// fuzzReader hands out fuzz bytes, zeros once they run out.
type fuzzReader []byte

func (f *fuzzReader) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// FuzzEpisodeTracker drives an EpisodeTracker over random per-link bin
// series — zero capacity, values exactly at the threshold, and
// frontiers past a link's recorded bins included — on a random frontier
// schedule. Bins at or past the frontier read provisional values until
// it passes them, and after each advance a random prefix of the scanned
// bins may be dropped, as netsim.LinkStats.DropBelow does. It checks
// that the closed tracker's episodes equal the oracle scan, and that
// every record joined at its own frontier (as soon as the bin holding
// its End is final) gets the overlap bit, Figure 7 samples and
// attribution terms of a join against the final index, bit for bit.
func FuzzEpisodeTracker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 8, 2, 2, 2, 0, 2, 2, 0, 3, 5, 0, 1, 0, 1, 0, 1, 4, 4, 3, 1, 2, 3, 6, 0, 1, 2, 1, 9, 7, 1, 3, 2, 0, 2, 1})
	f.Add([]byte{1, 1, 12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 3, 3, 3, 3, 3, 3, 4, 0, 1, 2, 0, 0, 10, 1, 1, 1, 0, 3, 4, 2, 1})
	top := topology.MustNew(topology.SmallConfig())
	servers := []topology.ServerID{0, 1, 12, 45}
	var ids []topology.LinkID
	for _, s := range servers {
		for _, d := range servers {
			for _, l := range top.PathK(s, d, 0) {
				if !slices.Contains(ids, l) {
					ids = append(ids, l)
				}
			}
		}
	}
	const bin = time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		threshold := []float64{0, 0.5, 0.7, 0.95}[in.next()%4]
		th := threshold
		if th <= 0 {
			th = DefaultThreshold
		}
		final := make(map[topology.LinkID][]float64)
		var scans []linkScan
		for _, id := range ids {
			capBin := []float64{0, -1, 125e6, 1000}[in.next()%4]
			n := in.next() % 24
			s := make([]float64, n)
			for i := range s {
				switch v := in.next(); v % 5 {
				case 1:
					s[i] = th * capBin
				case 2:
					s[i] = capBin
				case 3:
					s[i] = capBin / 10
				case 4:
					s[i] = float64(v) / 128 * capBin
				}
			}
			final[id] = s
			scans = append(scans, linkScan{id: id, capBin: capBin})
		}
		var recs []trace.FlowRecord
		for k, m := 0, in.next()%8; k < m; k++ {
			start := netsim.Time(in.next()%24)*bin + []netsim.Time{0, bin / 2, bin - 1}[in.next()%3]
			end := start + []netsim.Time{0, bin, 3 * bin, bin/2 + 7, 5*bin - start%bin}[in.next()%5]
			recs = append(recs, trace.FlowRecord{
				ID:    netsim.FlowID(k),
				Src:   servers[in.next()%len(servers)],
				Dst:   servers[in.next()%len(servers)],
				Start: start, End: end,
				Bytes: int64(in.next() * 1000),
				Tag:   netsim.FlowTag{Kind: netsim.FlowKind(in.next() % 4)},
			})
		}

		// The tracker reads each link's visible series: final below the
		// frontier, provisional (half the final value, or garbage past
		// it) at and beyond, and possibly shorter than the frontier. The
		// bins below first, which never passes the frontier, are dropped.
		visible := make(map[topology.LinkID][]float64)
		first := 0
		tr := newEpisodeTracker(bin, threshold, slices.Clone(scans), func(id topology.LinkID) (int, []float64) {
			s := visible[id]
			return first, s[min(first, len(s)):]
		})
		online := make([]*RecordJoin, len(recs))
		joinReady := func() {
			for i := range recs {
				if online[i] == nil && int(recs[i].End/bin) < tr.Final() {
					online[i] = NewRecordJoin(tr.Index(), top, 0)
					online[i].Join(&recs[i])
				}
			}
		}
		frontier := 0
		for step, steps := 0, in.next()%8; step < steps; step++ {
			frontier += in.next() % 6
			for _, id := range ids {
				s := final[id]
				n := min(len(s), frontier+in.next()%3)
				v := slices.Clone(s[:n])
				for i := frontier; i < n; i++ {
					v[i] = []float64{v[i] / 2, 2 * v[i], 1e18}[in.next()%3]
				}
				visible[id] = v
			}
			tr.Advance(frontier)
			if d := in.next() % 4; d < 3 {
				first = max(first, frontier-d)
			}
			joinReady()
		}
		visible = final
		tr.Close()
		joinReady()

		want := detectSeries(bin, threshold, scans, func(id topology.LinkID) []float64 { return final[id] })
		if got := tr.Episodes(); !slices.Equal(got, want) {
			t.Fatalf("tracker episodes %v, oracle %v", got, want)
		}
		idx := NewEpisodeIndex(want)
		for i := range recs {
			ref := NewRecordJoin(idx, top, 0)
			ref.Join(&recs[i])
			got := online[i]
			if got.congested(recs[i].ID) != ref.congested(recs[i].ID) {
				t.Fatalf("record %+v: online overlap %v, final-index %v", recs[i], got.congested(recs[i].ID), ref.congested(recs[i].ID))
			}
			if got.All.N() != ref.All.N() || got.Overlap.N() != ref.Overlap.N() {
				t.Fatalf("record %+v: Figure 7 samples differ", recs[i])
			}
			if len(got.part) != len(ref.part) {
				t.Fatalf("record %+v: attribution %v, final-index %v", recs[i], got.part, ref.part)
			}
			for k, v := range ref.part {
				if math.Float64bits(got.part[k]) != math.Float64bits(v) {
					t.Fatalf("record %+v: attribution %v, final-index %v", recs[i], got.part, ref.part)
				}
			}
		}
	})
}
