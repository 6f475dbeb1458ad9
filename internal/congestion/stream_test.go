package congestion

import (
	"sort"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// incastRecords builds records with bursty fan-in: several senders hit
// the same destination within the 1 ms audit window.
func incastRecords(t *testing.T, top *topology.Topology, n int) []trace.FlowRecord {
	t.Helper()
	rng := stats.NewRNG(31).Fork("incast_test")
	hosts := top.NumHosts()
	out := make([]trace.FlowRecord, 0, n)
	id := 0
	for len(out) < n {
		base := netsim.Time(rng.Float64() * float64(time.Minute))
		dst := topology.ServerID(rng.IntN(hosts))
		burst := 1 + rng.IntN(6)
		for b := 0; b < burst && len(out) < n; b++ {
			start := base + netsim.Time(rng.IntN(3))*netsim.Time(300*time.Microsecond)
			out = append(out, trace.FlowRecord{
				ID:    netsim.FlowID(id),
				Src:   topology.ServerID(rng.IntN(hosts)),
				Dst:   dst,
				Start: start,
				End:   start + netsim.Time(time.Second),
				Bytes: 1,
			})
			id++
		}
	}
	return out
}

// The streaming incast tracker must reproduce AuditIncast exactly when
// fed the same records in canonical order.
func TestIncastTrackerMatchesAudit(t *testing.T) {
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := incastRecords(t, top, 3000)
	eps := []Episode{
		{Link: 1, Start: 0, End: netsim.Time(10 * time.Second)},
		{Link: 2, Start: netsim.Time(5 * time.Second), End: netsim.Time(30 * time.Second)},
	}
	binSize := netsim.Time(time.Second)
	horizon := netsim.Time(time.Minute)
	want := AuditIncast(recs, top, eps, binSize, horizon, 7)

	sorted := append([]trace.FlowRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	tr := NewIncastTracker(top)
	for i := range sorted {
		tr.Observe(&sorted[i])
	}
	got := tr.Audit(eps, binSize, horizon, 7)
	if got != want {
		t.Fatalf("streamed audit %+v != batch audit %+v", got, want)
	}
}

// The fan-in tracker's maximum must match SynchronizedFanIn across
// window sizes, including zero-width windows (simultaneous arrivals
// only).
func TestFanInTrackerMatchesBatch(t *testing.T) {
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := incastRecords(t, top, 2000)
	sorted := append([]trace.FlowRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	for _, window := range []netsim.Time{0, netsim.Time(time.Millisecond), netsim.Time(50 * time.Millisecond)} {
		wantMax, _ := SynchronizedFanIn(recs, window)
		ft := NewFanInTracker(window)
		for i := range sorted {
			ft.Observe(&sorted[i])
		}
		if ft.Max() != wantMax {
			t.Fatalf("window %v: streamed max %d != batch max %d", window, ft.Max(), wantMax)
		}
	}
}

// SynchronizedFanIn is the batch oracle of FanInTracker: for each
// destination server, the largest number of distinct senders whose flows
// started within one window of each other, plus a histogram of the
// distinct-sender counts.
func SynchronizedFanIn(records []trace.FlowRecord, window netsim.Time) (maxFanIn int, histogram map[int]int) {
	type arrival struct {
		at  netsim.Time
		src topology.ServerID
	}
	byDst := make(map[topology.ServerID][]arrival)
	for _, r := range records {
		if r.Src == r.Dst {
			continue
		}
		byDst[r.Dst] = append(byDst[r.Dst], arrival{at: r.Start, src: r.Src})
	}
	histogram = make(map[int]int)
	for _, as := range byDst {
		sort.Slice(as, func(i, j int) bool { return as[i].at < as[j].at })
		lo := 0
		senders := make(map[topology.ServerID]int)
		distinct := 0
		for hi := 0; hi < len(as); hi++ {
			senders[as[hi].src]++
			if senders[as[hi].src] == 1 {
				distinct++
			}
			for as[hi].at-as[lo].at > window {
				senders[as[lo].src]--
				if senders[as[lo].src] == 0 {
					distinct--
					delete(senders, as[lo].src)
				}
				lo++
			}
			histogram[distinct]++
			if distinct > maxFanIn {
				maxFanIn = distinct
			}
		}
	}
	return maxFanIn, histogram
}

// AuditIncast computes the §4.4 audit over a whole record set: the
// batch oracle of IncastTracker.
func AuditIncast(records []trace.FlowRecord, top *topology.Topology, eps []Episode, binSize, horizon netsim.Time, maxConns int) IncastAudit {
	a := IncastAudit{MaxSimultaneousConnections: maxConns}
	var total, rack, vlan int
	for _, r := range records {
		if top.IsExternal(r.Src) || top.IsExternal(r.Dst) {
			continue
		}
		total++
		if r.Src == r.Dst || top.SameRack(r.Src, r.Dst) {
			rack++
			vlan++
		} else if top.SameVLAN(r.Src, r.Dst) {
			vlan++
		}
	}
	if total > 0 {
		a.FracFlowsWithinRack = float64(rack) / float64(total)
		a.FracFlowsWithinVLAN = float64(vlan) / float64(total)
	}
	a.MeanConcurrentCongestedLinks = stats.MeanInt(ConcurrencySeries(eps, binSize, horizon))
	a.MaxSyncFanIn, _ = SynchronizedFanIn(records, time.Millisecond)
	return a
}
