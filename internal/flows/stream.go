package flows

import (
	"container/heap"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// StreamReassembler applies the §3 inactivity-timeout methodology to a
// record stream in canonical (Start, ID) order, emitting reassembled
// flows — also in canonical order — while holding only the flows the
// timeout horizon can still extend. A five-tuple quiet for `timeout`
// can never merge with a record at or past End+timeout, so once the
// input watermark passes that point the pending flow is final; lookback
// is bounded by the timeout, not the trace.
//
// The merge rule: within one five-tuple, taken in (Start, ID) order, a
// record starting less than timeout after the flow's current End
// extends it (bytes add, End grows); any later record starts a new
// flow. What the reassembler emits is a pure function of the record
// set.
type StreamReassembler struct {
	timeout netsim.Time
	emit    func(trace.FlowRecord)

	pending   map[fiveTuple]*pendingFlow
	byEnd     pendingEndHeap   // candidates for horizon finalization; lazy
	byStart   pendingStartHeap // min pending (Start, ID); lazy
	out       recordHeap       // finalized flows awaiting in-order emission
	watermark netsim.Time
}

// pendingFlow is one in-progress reassembled flow.
type pendingFlow struct {
	rec   trace.FlowRecord
	final bool
}

// NewStreamReassembler returns a reassembler delivering finished flows
// to emit. timeout <= 0 selects DefaultInactivityTimeout.
func NewStreamReassembler(timeout netsim.Time, emit func(trace.FlowRecord)) *StreamReassembler {
	if timeout <= 0 {
		timeout = DefaultInactivityTimeout
	}
	return &StreamReassembler{
		timeout: timeout,
		emit:    emit,
		pending: make(map[fiveTuple]*pendingFlow),
	}
}

// Feed consumes the next raw record. Records must arrive in
// nondecreasing Start order (the Source contract).
func (s *StreamReassembler) Feed(r trace.FlowRecord) {
	s.watermark = r.Start
	// Finalize every pending flow the horizon has passed: no future
	// record can start within timeout of its end.
	for len(s.byEnd) > 0 {
		top := s.byEnd[0]
		if top.pf.final || top.end != top.pf.rec.End {
			heap.Pop(&s.byEnd) // stale entry (flow grew or already final)
			continue
		}
		if top.end+s.timeout > s.watermark {
			break
		}
		heap.Pop(&s.byEnd)
		s.finalize(top.pf)
	}

	k := fiveTuple{r.Src, r.Dst, r.SrcPort, r.DstPort}
	if pf := s.pending[k]; pf != nil {
		if r.Start-pf.rec.End < s.timeout {
			// Same flow continues.
			pf.rec.Bytes += r.Bytes
			if r.End > pf.rec.End {
				pf.rec.End = r.End
				heap.Push(&s.byEnd, pendingEnd{end: pf.rec.End, pf: pf})
			}
			s.drain()
			return
		}
		s.finalize(pf)
	}
	pf := &pendingFlow{rec: r}
	s.pending[k] = pf
	heap.Push(&s.byEnd, pendingEnd{end: pf.rec.End, pf: pf})
	heap.Push(&s.byStart, pf)
	s.drain()
}

// finalize moves a pending flow to the emission heap.
func (s *StreamReassembler) finalize(pf *pendingFlow) {
	if pf.final {
		return
	}
	pf.final = true
	delete(s.pending, fiveTuple{pf.rec.Src, pf.rec.Dst, pf.rec.SrcPort, pf.rec.DstPort})
	heap.Push(&s.out, pf.rec)
}

// drain emits finalized flows that can no longer be preceded: every
// pending flow and every future record orders strictly after them.
func (s *StreamReassembler) drain() {
	for len(s.out) > 0 {
		// Lazily discard finalized entries off the pending-min heap.
		for len(s.byStart) > 0 && s.byStart[0].final {
			heap.Pop(&s.byStart)
		}
		if len(s.byStart) > 0 {
			p := &s.byStart[0].rec
			t := &s.out[0]
			if p.Start < t.Start || (p.Start == t.Start && p.ID <= t.ID) {
				return
			}
		}
		s.emit(heap.Pop(&s.out).(trace.FlowRecord))
	}
}

// Close finalizes every pending flow and emits the remainder in order.
// The reassembler must not be fed after Close.
func (s *StreamReassembler) Close() {
	// Finalize through the end-heap, not the map, so the (irrelevant but
	// audited) finalization order is deterministic.
	for len(s.byEnd) > 0 {
		top := heap.Pop(&s.byEnd).(pendingEnd)
		if !top.pf.final && top.end == top.pf.rec.End {
			s.finalize(top.pf)
		}
	}
	s.drain()
}

// Pending reports the flows currently held open by the timeout horizon.
func (s *StreamReassembler) Pending() int { return len(s.pending) }

// pendingEnd is a lazy byEnd heap entry: valid only while the flow's
// End still equals end and the flow is not final.
type pendingEnd struct {
	end netsim.Time
	pf  *pendingFlow
}

type pendingEndHeap []pendingEnd

func (h pendingEndHeap) Len() int           { return len(h) }
func (h pendingEndHeap) Less(a, b int) bool { return h[a].end < h[b].end }
func (h pendingEndHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *pendingEndHeap) Push(x any)        { *h = append(*h, x.(pendingEnd)) }
func (h *pendingEndHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// pendingStartHeap orders pending flows by (Start, ID); finalized
// entries are discarded lazily at the top.
type pendingStartHeap []*pendingFlow

func (h pendingStartHeap) Len() int { return len(h) }
func (h pendingStartHeap) Less(a, b int) bool {
	if h[a].rec.Start != h[b].rec.Start {
		return h[a].rec.Start < h[b].rec.Start
	}
	return h[a].rec.ID < h[b].rec.ID
}
func (h pendingStartHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *pendingStartHeap) Push(x any)   { *h = append(*h, x.(*pendingFlow)) }
func (h *pendingStartHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// recordHeap orders finalized flows by (Start, ID) for emission.
type recordHeap []trace.FlowRecord

func (h recordHeap) Len() int { return len(h) }
func (h recordHeap) Less(a, b int) bool {
	if h[a].Start != h[b].Start {
		return h[a].Start < h[b].Start
	}
	return h[a].ID < h[b].ID
}
func (h recordHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *recordHeap) Push(x any)   { *h = append(*h, x.(trace.FlowRecord)) }
func (h *recordHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// SummaryTracker is Figure 9's flow-level analysis: it observes flows
// and keeps the duration CDF (s) counted per flow (ByFlows) and per
// byte (ByBytes), the average-rate CDF (Mbps) of the flows with a
// positive duration (Rates), and how many flows start inside the trace
// duration, the arrival rate's numerator.
type SummaryTracker struct {
	duration netsim.Time

	ByFlows *stats.StreamCDF
	ByBytes *stats.StreamCDF
	Rates   *stats.StreamCDF

	flows        int64
	startsBefore int64
}

// NewSummaryTracker builds a tracker for a trace of the given duration
// whose CDFs sketch past cdfCap samples (0 = default cap, < 0 = exact).
func NewSummaryTracker(duration netsim.Time, cdfCap int) *SummaryTracker {
	return &SummaryTracker{
		duration: duration,
		ByFlows:  stats.NewStreamCDF(cdfCap),
		ByBytes:  stats.NewStreamCDF(cdfCap),
		Rates:    stats.NewStreamCDF(cdfCap),
	}
}

// Observe consumes one flow; the order does not matter.
func (st *SummaryTracker) Observe(r *trace.FlowRecord) {
	st.flows++
	if r.Start < st.duration {
		st.startsBefore++
	}
	d := r.Duration().Seconds()
	st.ByFlows.Add(d)
	st.ByBytes.AddWeighted(d, float64(r.Bytes))
	if rate := r.AvgRateBps(); rate > 0 {
		st.Rates.Add(rate / 1e6)
	}
}

// Summary reports the headline numbers of the flows observed so far.
// The arrival rate is 0 for a non-positive duration.
func (st *SummaryTracker) Summary() Summary {
	s := Summary{
		NumFlows:             int(st.flows),
		FracShorterThan10s:   st.ByFlows.P(10),
		FracLongerThan200s:   1 - st.ByFlows.P(200),
		BytesInFlowsUnder25s: st.ByBytes.P(25),
		MedianDurationSec:    st.ByFlows.Quantile(0.5),
		MedianRateMbps:       st.Rates.Quantile(0.5),
	}
	if st.duration > 0 {
		s.ArrivalRatePerSec = float64(st.startsBefore) / st.duration.Seconds()
	}
	return s
}

// InterArrivalTracker is Figure 11's inter-arrival analysis: it
// observes flows in canonical order and keeps, per endpoint, the last
// flow start, adding each new gap (ms) to the cluster-scope CDF (any
// flow), the ToR-scope CDF (flows with an endpoint in the rack) or the
// server-scope CDF (flows from or to a cluster server). The server gaps
// also feed a histogram whose fullest bin is the stop-and-go spacing
// ModeMs reports.
type InterArrivalTracker struct {
	top *topology.Topology

	lastServer []netsim.Time
	seenServer []bool
	lastRack   []netsim.Time
	seenRack   []bool
	lastAny    netsim.Time
	seenAny    bool

	Cluster *stats.StreamCDF
	Tor     *stats.StreamCDF
	Server  *stats.StreamCDF

	modeHist   *stats.Histogram
	serverGaps int64
}

// NewInterArrivalTracker builds a tracker whose CDFs sketch past
// cdfCap samples (0 = default cap, < 0 = exact). The mode histogram
// bins server gaps in [2, 100) ms at 0.5 ms: Figure 11's ~15 ms modes,
// above the near-simultaneous flows one application event emits.
func NewInterArrivalTracker(top *topology.Topology, cdfCap int) *InterArrivalTracker {
	return &InterArrivalTracker{
		top:        top,
		lastServer: make([]netsim.Time, top.NumHosts()),
		seenServer: make([]bool, top.NumHosts()),
		lastRack:   make([]netsim.Time, top.NumRacks()),
		seenRack:   make([]bool, top.NumRacks()),
		Cluster:    stats.NewStreamCDF(cdfCap),
		Tor:        stats.NewStreamCDF(cdfCap),
		Server:     stats.NewStreamCDF(cdfCap),
		modeHist:   stats.NewHistogram(2, 100, 196),
	}
}

// gapMs converts a start-time delta to milliseconds.
func gapMs(d netsim.Time) float64 { return float64(d) / float64(time.Millisecond) }

// Observe consumes the next flow (nondecreasing Start). It visits Src
// (if internal), then Dst when distinct; the rack of Src, then the rack
// of Dst when distinct.
func (it *InterArrivalTracker) Observe(r *trace.FlowRecord) {
	if it.seenAny {
		it.Cluster.Add(gapMs(r.Start - it.lastAny))
	}
	it.seenAny, it.lastAny = true, r.Start

	it.observeServer(r.Src, r.Start)
	if r.Dst != r.Src {
		it.observeServer(r.Dst, r.Start)
	}

	rs, rd := it.top.Rack(r.Src), it.top.Rack(r.Dst)
	if rs >= 0 {
		it.observeRack(rs, r.Start)
	}
	if rd >= 0 && rd != rs {
		it.observeRack(rd, r.Start)
	}
}

func (it *InterArrivalTracker) observeServer(s topology.ServerID, t netsim.Time) {
	if it.top.IsExternal(s) {
		return
	}
	if it.seenServer[s] {
		g := gapMs(t - it.lastServer[s])
		it.Server.Add(g)
		it.modeHist.Add(g)
		it.serverGaps++
	}
	it.seenServer[s] = true
	it.lastServer[s] = t
}

func (it *InterArrivalTracker) observeRack(r topology.RackID, t netsim.Time) {
	if it.seenRack[r] {
		it.Tor.Add(gapMs(t - it.lastRack[r]))
	}
	it.seenRack[r] = true
	it.lastRack[r] = t
}

// ModeMs reports the dominant server-gap spacing: the center of the
// mode histogram's fullest bin, or 0 before any server gap.
func (it *InterArrivalTracker) ModeMs() float64 {
	if it.serverGaps == 0 {
		return 0
	}
	return histogramMode(it.modeHist)
}

// histogramMode returns the most populated bin's center (first maximum
// wins), or 0 for an empty histogram.
func histogramMode(h *stats.Histogram) float64 {
	best, bestCount := 0, 0.0
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if bestCount == 0 {
		return 0
	}
	return h.BinCenter(best)
}
