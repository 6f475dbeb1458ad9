package congestion

import (
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// FanInTracker measures the incast trigger: the largest number of
// distinct senders whose flows reached one destination within one
// window of each other. It observes records in nondecreasing Start
// order and maintains, per destination, the distinct-sender count
// inside the sliding arrival window, holding only the arrivals the
// window can still cover instead of every arrival in the trace.
type FanInTracker struct {
	window netsim.Time
	byDst  map[topology.ServerID]*dstWindow
	max    int
}

// dstWindow is one destination's sliding arrival window.
type dstWindow struct {
	arrivals []arrival
	lo       int
	senders  map[topology.ServerID]int
	distinct int
}

type arrival struct {
	at  netsim.Time
	src topology.ServerID
}

// NewFanInTracker tracks distinct senders per destination within
// window (the incast audit uses 1 ms).
func NewFanInTracker(window netsim.Time) *FanInTracker {
	return &FanInTracker{window: window, byDst: make(map[topology.ServerID]*dstWindow)}
}

// Observe consumes the next record. Self-flows are skipped.
func (f *FanInTracker) Observe(r *trace.FlowRecord) {
	if r.Src == r.Dst {
		return
	}
	w := f.byDst[r.Dst]
	if w == nil {
		w = &dstWindow{senders: make(map[topology.ServerID]int)}
		f.byDst[r.Dst] = w
	}
	w.arrivals = append(w.arrivals, arrival{at: r.Start, src: r.Src})
	w.senders[r.Src]++
	if w.senders[r.Src] == 1 {
		w.distinct++
	}
	hi := len(w.arrivals) - 1
	for w.arrivals[hi].at-w.arrivals[w.lo].at > f.window {
		old := w.arrivals[w.lo]
		w.senders[old.src]--
		if w.senders[old.src] == 0 {
			w.distinct--
			delete(w.senders, old.src)
		}
		w.lo++
	}
	if w.distinct > f.max {
		f.max = w.distinct
	}
	// Reclaim the evicted prefix once it dominates the slice.
	if w.lo > 64 && w.lo > len(w.arrivals)/2 {
		n := copy(w.arrivals, w.arrivals[w.lo:])
		w.arrivals = w.arrivals[:n]
		w.lo = 0
	}
}

// Max reports the maximum synchronized fan-in observed so far. It does
// not depend on how Start ties are ordered: tied arrivals land in one
// window together either way.
func (f *FanInTracker) Max() int { return f.max }

// IncastTracker streams the record-derived half of the §4.4 incast audit
// — the locality fractions and the synchronized fan-in maximum — so
// trace-file analyses can audit incast without materializing records.
// The episode-derived fields (mean concurrent congested links) and the
// config-derived cap join in Audit.
type IncastTracker struct {
	top   *topology.Topology
	fan   *FanInTracker
	total int
	rack  int
	vlan  int
}

// NewIncastTracker builds a tracker over top with a 1 ms fan-in
// window.
func NewIncastTracker(top *topology.Topology) *IncastTracker {
	return &IncastTracker{top: top, fan: NewFanInTracker(netsim.Time(time.Millisecond))}
}

// Observe consumes the next record (nondecreasing Start).
func (t *IncastTracker) Observe(r *trace.FlowRecord) {
	t.fan.Observe(r)
	if t.top.IsExternal(r.Src) || t.top.IsExternal(r.Dst) {
		return
	}
	t.total++
	if r.Src == r.Dst || t.top.SameRack(r.Src, r.Dst) {
		t.rack++
		t.vlan++
	} else if t.top.SameVLAN(r.Src, r.Dst) {
		t.vlan++
	}
}

// Audit combines the streamed counters with the episode- and
// config-derived fields into the §4.4 IncastAudit.
func (t *IncastTracker) Audit(eps []Episode, binSize, horizon netsim.Time, maxConns int) IncastAudit {
	a := IncastAudit{MaxSimultaneousConnections: maxConns}
	if t.total > 0 {
		a.FracFlowsWithinRack = float64(t.rack) / float64(t.total)
		a.FracFlowsWithinVLAN = float64(t.vlan) / float64(t.total)
	}
	if binSize > 0 {
		a.MeanConcurrentCongestedLinks = stats.MeanInt(ConcurrencySeries(eps, binSize, horizon))
	}
	a.MaxSyncFanIn = t.fan.Max()
	return a
}
