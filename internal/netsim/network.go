package netsim

import (
	"math"
	"slices"
	"time"

	"dctraffic/internal/obs"
	"dctraffic/internal/topology"
)

// Options tunes the network simulator. The zero value is usable; see the
// field comments for defaults.
type Options struct {
	// MinRecomputeInterval batches rate recomputation: bandwidth shares
	// are recomputed at most once per interval even under heavy flow
	// churn. Zero recomputes on every arrival and completion (exact
	// fluid model). Large simulations use ~10ms.
	MinRecomputeInterval Time

	// LocalBps is the transfer speed of loopback flows (src == dst),
	// which model local disk reads and never touch the fabric.
	// Default 8 Gbps.
	LocalBps float64

	// StatsBinSize enables per-link byte accounting in bins of this
	// size (the SNMP-like counters used by congestion analysis and
	// tomography). Zero disables binned stats; totals are always kept.
	StatsBinSize Time

	// StatsLinks selects which links are binned. Nil tracks the
	// inter-switch links at every scale: the paper's congestion link set
	// and the only counters tomography reads. Server-level traffic comes
	// from the record log, so callers that want a server link's bins
	// name it here.
	StatsLinks []topology.LinkID

	// fullRecompute disables the dirty-component optimization and
	// re-solves every flow on every recompute, as the original
	// allocator did. The results are identical (components not sharing
	// links with changed flows cannot change under max-min); only this
	// package's tests set it, as the oracle of the incremental solver.
	fullRecompute bool
}

// Observer receives flow lifecycle notifications. The instrumentation
// layer (internal/trace) implements this to build socket-level logs.
type Observer interface {
	FlowStarted(*Flow)
	FlowEnded(*Flow)
}

// Network simulates fluid flows over a topology. Create with New; drive by
// scheduling workload events on the embedded Sim and calling Run.
//
// Rate allocation is incremental: per-link flow lists are maintained at
// flow start/retire time, and a recompute re-solves only the connected
// components (over link sharing) of flows whose membership changed since
// the last recompute. All solver scratch lives on the Network, so
// steady-state recomputation performs no allocations.
type Network struct {
	Sim
	top  *topology.Topology
	opts Options

	active   []*Flow
	nextID   FlowID
	nextPort uint16

	linkCapB  []float64 // bytes/sec capacity per link
	linkRateB []float64 // current aggregate bytes/sec per link
	linkBytes []float64 // cumulative bytes per link

	// linkFlows[l] holds the active flows crossing link l, maintained
	// incrementally by StartFlow and retire (swap-removal via
	// Flow.linkIdx). Ordering is arbitrary but deterministic.
	linkFlows [][]*Flow

	// activeLinks lists the links with a nonzero allocated rate, the
	// only ones whose byte counters advance; linkActivePos[l] is l's
	// index in it (-1 if absent). Maintained by publish.
	activeLinks   []topology.LinkID
	linkActivePos []int32

	// Dirty tracking: links whose flow membership changed since the
	// last recompute. seedMark dedupes; seedLinks lists them.
	seedLinks []topology.LinkID
	seedMark  []bool

	// Solver scratch, reused across recomputes (zero-alloc steady state).
	linkAlloc    []float64         // progressive-filling allocation per link
	linkUnfrozen []int32           // unfrozen flows per link
	linkComp     []uint64          // generation stamp: link gathered this solve
	comps        []component       // dirty components of the current step
	fullComp     []topology.LinkID // fullRecompute's one all-flows component
	cand         []topology.LinkID // solve's bottleneck-candidate scratch
	compGen      uint64

	// pendingLocal holds loopback flows started since the last
	// recompute; they get LocalBps at the next recompute, exactly when
	// the full solver used to assign it.
	pendingLocal []*Flow

	// finished is completeFinished's scratch for the flows retired this
	// step, in the active-scan order their callbacks run in.
	finished []*Flow

	lastAdvance        Time
	lastRecompute      Time
	dirty              bool
	recomputeScheduled bool
	completionGen      uint64

	observers []Observer
	stats     *LinkStats

	totalBytes     float64
	flowsStarted   int64
	flowsCompleted int64
	flowsCanceled  int64

	// Allocator telemetry (see Instrument). Plain counters cost nothing
	// on the hot path and are exported as sampled series; the histogram
	// is an obs handle with a nil-safe Observe.
	recomputesDirty int64
	recomputesFull  int64
	metCompLinks    *obs.Histogram
}

// New builds a network over the topology.
func New(top *topology.Topology, opts Options) *Network {
	if opts.LocalBps <= 0 {
		opts.LocalBps = 8e9
	}
	nl := top.NumLinks()
	n := &Network{
		top:           top,
		opts:          opts,
		linkCapB:      make([]float64, nl),
		linkRateB:     make([]float64, nl),
		linkBytes:     make([]float64, nl),
		linkFlows:     make([][]*Flow, nl),
		seedMark:      make([]bool, nl),
		linkAlloc:     make([]float64, nl),
		linkUnfrozen:  make([]int32, nl),
		linkComp:      make([]uint64, nl),
		linkActivePos: make([]int32, nl),
	}
	for i := range n.linkActivePos {
		n.linkActivePos[i] = -1
	}
	for _, l := range top.Links() {
		n.linkCapB[l.ID] = l.CapacityBps / 8
	}
	if opts.StatsBinSize > 0 {
		links := opts.StatsLinks
		if links == nil {
			links = top.InterSwitchLinks()
		}
		n.stats = newLinkStats(opts.StatsBinSize, nl, links)
	}
	return n
}

// Top returns the topology.
func (n *Network) Top() *topology.Topology { return n.top }

// Instrument registers the simulator's netsim.* series with the
// registry. Counters the simulator maintains natively are exported as
// sampled series (zero hot-path cost); the dirty-component size
// histogram gets a handle with a nil-safe Observe.
// Metrics are write-only from the simulation's perspective — nothing
// here feeds back into event order, RNG draws or rates — so
// instrumenting a run cannot change its results. Safe to call with a
// nil registry.
func (n *Network) Instrument(r *obs.Registry) {
	r.SampledCounter("netsim.events_total", func() float64 { return float64(n.EventsProcessed()) })
	r.SampledGauge("netsim.queue_depth", func() float64 { return float64(n.Pending()) })
	r.SampledGauge("netsim.active_flows", func() float64 { return float64(len(n.active)) })
	r.SampledCounter("netsim.flows_started_total", func() float64 { return float64(n.flowsStarted) })
	r.SampledCounter("netsim.flows_completed_total", func() float64 { return float64(n.flowsCompleted) })
	r.SampledCounter("netsim.flows_canceled_total", func() float64 { return float64(n.flowsCanceled) })
	r.SampledCounter("netsim.bytes_total", func() float64 { return n.totalBytes })
	r.SampledCounter("netsim.recomputes_dirty_total", func() float64 { return float64(n.recomputesDirty) })
	r.SampledCounter("netsim.recomputes_full_total", func() float64 { return float64(n.recomputesFull) })
	n.metCompLinks = r.Histogram("netsim.recompute_component_links", obs.Pow2Bounds(1, 16))
}

// AddObserver registers a flow lifecycle observer.
func (n *Network) AddObserver(o Observer) { n.observers = append(n.observers, o) }

// Stats returns the binned link statistics, or nil if disabled.
func (n *Network) Stats() *LinkStats { return n.stats }

// ActiveFlows reports the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.active) }

// LastAccrual reports the time link bytes have been accrued up to.
// Bytes accrue lazily, at the next network event rather than at the
// clock, so a stats bin that ends at or before this time is final.
func (n *Network) LastAccrual() Time { return n.lastAdvance }

// EarliestActiveStart returns the minimum Start time among in-flight
// flows (false when none are active). Together with the simulation
// clock it bounds the release watermark of a live record stream: any
// record still to come belongs either to an active flow (Start >= this
// minimum) or to a flow not yet started (Start > the clock).
func (n *Network) EarliestActiveStart() (Time, bool) {
	if len(n.active) == 0 {
		return 0, false
	}
	earliest := n.active[0].Start
	for _, f := range n.active[1:] {
		if f.Start < earliest {
			earliest = f.Start
		}
	}
	return earliest, true
}

// FlowsStarted reports the cumulative number of flows started.
func (n *Network) FlowsStarted() int64 { return n.flowsStarted }

// FlowsCompleted reports the cumulative number of flows completed.
func (n *Network) FlowsCompleted() int64 { return n.flowsCompleted }

// TotalBytes reports the cumulative bytes moved over the fabric and
// loopback.
func (n *Network) TotalBytes() float64 { return n.totalBytes }

// LinkTotalBytes reports the cumulative bytes carried by a link.
func (n *Network) LinkTotalBytes(id topology.LinkID) float64 { return n.linkBytes[id] }

// StartFlow begins a transfer of bytes from src to dst and returns the
// flow. done, if non-nil, runs when the transfer completes. A zero-byte
// flow completes at the next simulation instant.
func (n *Network) StartFlow(src, dst topology.ServerID, bytes int64, tag FlowTag, done func(*Flow)) *Flow {
	if bytes < 0 {
		panic("netsim: negative flow size")
	}
	n.nextPort++
	if n.nextPort < 1024 {
		n.nextPort = 1024
	}
	f := &Flow{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		Tag:       tag,
		SrcPort:   n.nextPort,
		DstPort:   443, // services listen on a well-known port
		Start:     n.Now(),
		remaining: float64(bytes),
		done:      done,
		idx:       len(n.active),
	}
	f.path = n.top.AppendPathK(f.pathBuf[:0], src, dst, uint64(f.ID))
	n.nextID++
	n.flowsStarted++
	n.active = append(n.active, f)
	if len(f.path) == 0 {
		// Loopback: rate is assigned at the next recompute, matching
		// when a full re-solve would have assigned it.
		n.pendingLocal = append(n.pendingLocal, f)
	} else {
		for i, l := range f.path {
			f.linkIdx[i] = int32(len(n.linkFlows[l]))
			n.linkFlows[l] = append(n.linkFlows[l], f)
			n.seedLink(l)
		}
	}
	for _, o := range n.observers {
		o.FlowStarted(f)
	}
	n.markDirty()
	return f
}

// seedLink records that link l's flow membership changed, so the next
// recompute re-solves the component containing it.
func (n *Network) seedLink(l topology.LinkID) {
	if !n.seedMark[l] {
		n.seedMark[l] = true
		n.seedLinks = append(n.seedLinks, l)
	}
}

// retire unlinks an active flow from the active set and the per-link
// flow lists, seeding its links for the next recompute. Observer and
// callback delivery is the caller's job.
func (n *Network) retire(f *Flow) {
	last := len(n.active) - 1
	i := f.idx
	n.active[i] = n.active[last]
	n.active[i].idx = i
	n.active[last] = nil
	n.active = n.active[:last]
	f.idx = -1
	for i, l := range f.path {
		fl := n.linkFlows[l]
		j := int(f.linkIdx[i])
		lastJ := len(fl) - 1
		moved := fl[lastJ]
		fl[j] = moved
		fl[lastJ] = nil
		n.linkFlows[l] = fl[:lastJ]
		if moved != f {
			for k, ml := range moved.path {
				if ml == l {
					moved.linkIdx[k] = int32(j)
					break
				}
			}
		}
		n.seedLink(l)
	}
}

// markDirty schedules a rate recomputation, batched by
// MinRecomputeInterval.
func (n *Network) markDirty() {
	n.dirty = true
	if n.recomputeScheduled {
		return
	}
	at := n.Now()
	if min := n.opts.MinRecomputeInterval; min > 0 && n.lastRecompute+min > at {
		at = n.lastRecompute + min
	}
	n.recomputeScheduled = true
	n.Schedule(at, n.recomputeEvent)
}

func (n *Network) recomputeEvent() {
	n.recomputeScheduled = false
	if !n.dirty {
		return
	}
	n.dirty = false
	n.step()
}

// step advances flow progress under the old rates, completes finished
// flows, recomputes max-min shares, and schedules the next completion,
// in flat loops on the event-loop goroutine.
func (n *Network) step() {
	n.advance()
	n.completeFinished()
	n.lastRecompute = n.Now()
	for _, f := range n.pendingLocal {
		if f.Active() {
			f.rate = n.opts.LocalBps / 8
		}
	}
	n.pendingLocal = n.pendingLocal[:0]
	if n.opts.fullRecompute {
		n.recomputeRates()
	} else {
		n.recomputeDirty()
	}
	n.scheduleNextCompletion()
}

// advance accrues progress and link bytes for the time since the last
// advance, under the rates frozen then: the loaded links' byte counters
// (and their binned stats), then every active flow.
func (n *Network) advance() {
	now := n.Now()
	if now <= n.lastAdvance {
		return
	}
	dt := (now - n.lastAdvance).Seconds()
	for _, l := range n.activeLinks {
		r := n.linkRateB[l]
		n.linkBytes[l] += r * dt
		if n.stats != nil {
			n.stats.record(l, n.lastAdvance, now, r)
		}
	}
	moved := 0.0
	for _, f := range n.active {
		if f.rate > 0 {
			m := f.rate * dt
			if m > f.remaining {
				m = f.remaining
			}
			f.remaining -= m
			moved += m
		}
	}
	n.totalBytes += moved
	n.lastAdvance = now
}

// completeFinished retires flows whose remaining bytes reached zero.
const finishEps = 1e-3 // bytes

// completeFinished retires everything first, then delivers observers
// and callbacks in retirement order, which is the active-scan order.
// That order is trajectory-defining: the workload layers draw RNG state
// inside completion callbacks, so changing it changes every later event.
func (n *Network) completeFinished() {
	finished := n.finished[:0]
	for i := 0; i < len(n.active); {
		f := n.active[i]
		if f.remaining <= finishEps {
			f.remaining = 0
			f.End = n.Now()
			n.retire(f)
			finished = append(finished, f)
			continue
		}
		i++
	}
	n.finished = finished
	for _, f := range finished {
		n.flowsCompleted++
		for _, o := range n.observers {
			o.FlowEnded(f)
		}
		if f.done != nil {
			f.done(f)
		}
	}
}

// component is one link-sharing-connected set of dirty links, the unit
// of max-min re-solving. Components are link- and flow-disjoint by
// construction, so each one's allocation is independent of the others'.
type component struct {
	links    []topology.LinkID // ascending id order, closed under link sharing
	unfrozen int               // distinct flows on links
}

// gatherComponents consumes the dirty-link seeds and returns the
// connected components (over link sharing) containing them, each closed
// and sorted. Seeds are sorted first so component enumeration order —
// and therefore every downstream publish — is canonical.
func (n *Network) gatherComponents() []component {
	if len(n.seedLinks) == 0 {
		return nil
	}
	slices.Sort(n.seedLinks)
	n.compGen++
	gen := n.compGen
	comps := n.comps[:0]
	for _, seed := range n.seedLinks {
		n.seedMark[seed] = false
		if n.linkComp[seed] == gen {
			continue
		}
		if len(comps) < cap(comps) {
			comps = comps[:len(comps)+1]
			c := &comps[len(comps)-1]
			c.links = c.links[:0]
			c.unfrozen = 0
		} else {
			comps = append(comps, component{})
		}
		c := &comps[len(comps)-1]
		n.linkComp[seed] = gen
		c.links = append(c.links, seed)
		// Close over link sharing: c.links doubles as the BFS frontier.
		for i := 0; i < len(c.links); i++ {
			for _, f := range n.linkFlows[c.links[i]] {
				if f.mark == gen {
					continue
				}
				f.mark = gen
				f.frozen = false
				c.unfrozen++
				for _, pl := range f.path {
					if n.linkComp[pl] != gen {
						n.linkComp[pl] = gen
						c.links = append(c.links, pl)
					}
				}
			}
		}
		// Canonical link order keeps bottleneck tie-breaking (and
		// therefore floating-point rounding) identical to a full
		// re-solve.
		slices.Sort(c.links)
	}
	n.seedLinks = n.seedLinks[:0]
	n.comps = comps
	return comps
}

// recomputeDirty re-solves max-min shares for the connected components of
// flows sharing links with any flow that started or ended since the last
// recompute. Flows in disjoint components keep their rates, which is
// exact: a max-min allocation is separable across link-disjoint
// components, so allocations outside the affected ones cannot change.
func (n *Network) recomputeDirty() {
	comps := n.gatherComponents()
	if len(comps) == 0 {
		return
	}
	n.recomputesDirty++
	for i := range comps {
		c := &comps[i]
		n.metCompLinks.Observe(float64(len(c.links)))
		n.solve(c.links, c.unfrozen)
		n.publish(c.links)
	}
}

// recomputeRates re-solves every active flow from scratch (the
// fullRecompute path, also used by benchmarks as the worst-case solve).
func (n *Network) recomputeRates() {
	n.recomputesFull++
	// Drop the dirty bookkeeping: a full solve covers everything.
	for _, l := range n.seedLinks {
		n.seedMark[l] = false
	}
	n.seedLinks = n.seedLinks[:0]
	// Rates on links whose last flow retired since the previous solve
	// are republished by solve only if the link is gathered again, so
	// clear the whole active set first.
	for _, l := range n.activeLinks {
		n.linkRateB[l] = 0
		n.linkActivePos[l] = -1
	}
	n.activeLinks = n.activeLinks[:0]
	n.compGen++
	gen := n.compGen
	comp := n.fullComp[:0]
	unfrozen := 0
	localB := n.opts.LocalBps / 8
	for _, f := range n.active {
		if len(f.path) == 0 {
			f.rate = localB
			continue
		}
		f.frozen = false
		unfrozen++
		for _, l := range f.path {
			if n.linkComp[l] != gen {
				n.linkComp[l] = gen
				comp = append(comp, l)
			}
		}
	}
	slices.Sort(comp)
	n.fullComp = comp
	n.solve(comp, unfrozen)
	n.publish(comp)
}

// solve assigns max-min fair rates to the flows on links by progressive
// filling: repeatedly find the most-contended link, fix its flows at the
// fair share, remove them, and continue. links must be in ascending id
// order (deterministic tie-breaks) and closed under flow link-sharing;
// unfrozen is the number of distinct flows on them.
func (n *Network) solve(links []topology.LinkID, unfrozen int) {
	for _, l := range links {
		n.linkAlloc[l] = 0
		n.linkUnfrozen[l] = int32(len(n.linkFlows[l]))
	}
	n.cand = append(n.cand[:0], links...)
	cand := n.cand
	for unfrozen > 0 {
		// Find the bottleneck link: minimal fair share among links with
		// unfrozen flows, lowest id winning ties. Saturated links are
		// compacted out in passing (order is preserved).
		var bottleneck topology.LinkID = -1
		best := math.Inf(1)
		w := 0
		for _, l := range cand {
			if n.linkUnfrozen[l] == 0 {
				continue
			}
			cand[w] = l
			w++
			share := (n.linkCapB[l] - n.linkAlloc[l]) / float64(n.linkUnfrozen[l])
			if share < best {
				best = share
				bottleneck = l
			}
		}
		cand = cand[:w]
		if bottleneck < 0 {
			break
		}
		if best < 0 {
			best = 0
		}
		for _, f := range n.linkFlows[bottleneck] {
			if f.frozen {
				continue
			}
			f.frozen = true
			unfrozen--
			f.rate = best
			for _, l := range f.path {
				n.linkUnfrozen[l]--
				n.linkAlloc[l] += best
			}
		}
	}
}

// publish copies the solved allocations into the live rate array and
// maintains the active-link list the next advance walks.
func (n *Network) publish(links []topology.LinkID) {
	for _, l := range links {
		r := n.linkAlloc[l]
		n.linkRateB[l] = r
		pos := n.linkActivePos[l]
		if r != 0 && pos < 0 {
			n.linkActivePos[l] = int32(len(n.activeLinks))
			n.activeLinks = append(n.activeLinks, l)
		} else if r == 0 && pos >= 0 {
			last := len(n.activeLinks) - 1
			moved := n.activeLinks[last]
			n.activeLinks[pos] = moved
			n.linkActivePos[moved] = pos
			n.activeLinks = n.activeLinks[:last]
			n.linkActivePos[l] = -1
		}
	}
}

// scheduleNextCompletion arms a single timer for the earliest projected
// flow completion; a generation counter invalidates stale timers.
func (n *Network) scheduleNextCompletion() {
	n.completionGen++
	gen := n.completionGen
	best := math.Inf(1)
	for _, f := range n.active {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < best {
				best = t
			}
		}
	}
	if math.IsInf(best, 1) {
		return
	}
	dt := Time(best * float64(time.Second))
	dt++ // round up so the flow is strictly done when the timer fires
	n.Schedule(n.Now()+dt, func() {
		if gen != n.completionGen {
			return
		}
		n.step()
	})
}

// Cancel aborts an active flow: progress accounting is brought up to
// date, the flow is retired with Canceled set and observers are notified
// via FlowEnded. The completion callback IS invoked (with Canceled set)
// so resource bookkeeping tied to the flow can unwind; callers must check
// Flow.Canceled. Canceling an already-finished flow is a no-op.
func (n *Network) Cancel(f *Flow) {
	if !f.Active() {
		return
	}
	n.advance()
	n.retire(f)
	f.Canceled = true
	f.End = n.Now()
	n.flowsCanceled++
	for _, o := range n.observers {
		o.FlowEnded(f)
	}
	if f.done != nil {
		f.done(f)
	}
	n.markDirty() // freed bandwidth reallocates
}

// CancelWhere aborts every active flow matching pred and reports how many
// were canceled. Used by the job manager to reap a killed job's transfers.
// The batch advances accounting once up front, so reaping is
// O(victims × path), not O(victims × links).
func (n *Network) CancelWhere(pred func(*Flow) bool) int {
	// Collect first: retiring mutates n.active.
	var victims []*Flow
	for _, f := range n.active {
		if pred(f) {
			victims = append(victims, f)
		}
	}
	if len(victims) == 0 {
		return 0
	}
	n.advance()
	for _, f := range victims {
		if !f.Active() { // a prior victim's callback may have canceled it
			continue
		}
		n.retire(f)
		f.Canceled = true
		f.End = n.Now()
		n.flowsCanceled++
		for _, o := range n.observers {
			o.FlowEnded(f)
		}
		if f.done != nil {
			f.done(f)
		}
		// Mark after every victim's callback, not once at the end: the
		// recompute event must enter the queue before anything a LATER
		// victim's callback schedules for the same instant, or the
		// same-timestamp event order (and hence the whole closed-loop
		// simulation) changes. Only the first call schedules; the rest
		// are cheap no-ops.
		n.markDirty()
	}
	return len(victims)
}

// LinkRateBps reports the instantaneous allocated rate on a link in bits
// per second (as of the last recomputation).
func (n *Network) LinkRateBps(id topology.LinkID) float64 { return n.linkRateB[id] * 8 }

// Flush advances accounting to the current time; call before reading
// byte counters mid-run.
func (n *Network) Flush() { n.advance() }
