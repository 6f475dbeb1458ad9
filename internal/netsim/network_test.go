package netsim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

func newNet(t *testing.T, opts Options) *Network {
	t.Helper()
	return New(topology.MustNew(topology.SmallConfig()), opts)
}

func approxDur(got, want Time, tol Time) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestSingleFlowFullRate(t *testing.T) {
	n := newNet(t, Options{})
	// 125 MB over a 1 Gbps server link: exactly 1 second.
	var end Time
	n.StartFlow(0, 1, 125_000_000, FlowTag{}, func(f *Flow) { end = f.End })
	n.RunAll()
	if !approxDur(end, time.Second, time.Millisecond) {
		t.Fatalf("single flow completed at %v, want ~1s", end)
	}
	if n.FlowsCompleted() != 1 || n.ActiveFlows() != 0 {
		t.Fatalf("completed=%d active=%d", n.FlowsCompleted(), n.ActiveFlows())
	}
}

func TestTwoFlowsShareUplink(t *testing.T) {
	n := newNet(t, Options{})
	// Two flows out of server 0 share its 1 Gbps uplink: each ~0.5 Gbps.
	var ends []Time
	done := func(f *Flow) { ends = append(ends, f.End) }
	n.StartFlow(0, 1, 125_000_000, FlowTag{}, done)
	n.StartFlow(0, 2, 125_000_000, FlowTag{}, done)
	n.RunAll()
	if len(ends) != 2 {
		t.Fatalf("completed %d flows", len(ends))
	}
	for _, e := range ends {
		if !approxDur(e, 2*time.Second, 2*time.Millisecond) {
			t.Fatalf("shared flows completed at %v, want ~2s", e)
		}
	}
}

func TestReallocationAfterCompletion(t *testing.T) {
	n := newNet(t, Options{})
	var end1, end2 Time
	n.StartFlow(0, 1, 125_000_000, FlowTag{}, func(f *Flow) { end1 = f.End })
	n.StartFlow(0, 2, 62_500_000, FlowTag{}, func(f *Flow) { end2 = f.End })
	n.RunAll()
	// Flow 2 (half the size) finishes at ~1s; flow 1 then gets the full
	// link and finishes its remaining half at full speed: ~1.5s.
	if !approxDur(end2, time.Second, 2*time.Millisecond) {
		t.Fatalf("small flow completed at %v, want ~1s", end2)
	}
	if !approxDur(end1, 1500*time.Millisecond, 3*time.Millisecond) {
		t.Fatalf("large flow completed at %v, want ~1.5s", end1)
	}
}

func TestMaxMinTorBottleneck(t *testing.T) {
	n := newNet(t, Options{})
	top := n.Top()
	// 5 cross-rack flows from rack 0 to rack 2 (same agg in SmallConfig):
	// ToR uplink is 2.5 Gbps, so each gets 0.5 Gbps. A 6th intra-rack flow
	// from an unused server keeps its full 1 Gbps.
	src := top.RackServers(0)
	dst := top.RackServers(2)
	for i := 0; i < 5; i++ {
		n.StartFlow(src[i], dst[i], 1, FlowTag{}, nil)
	}
	intra := n.StartFlow(src[6], src[7], 1, FlowTag{}, nil)
	n.Schedule(0, func() {}) // force the recompute event to fire
	n.Run(0)
	crossWant := 2.5e9 / 5
	for _, f := range []*Flow{intra} {
		if math.Abs(f.Rate()-1e9) > 1 {
			t.Fatalf("intra-rack rate %v, want 1 Gbps", f.Rate())
		}
	}
	// All cross flows should carry the ToR fair share.
	sum := 0.0
	rate := n.LinkRateBps(top.TorUplink(0))
	sum += rate
	if math.Abs(rate-2.5e9) > 1 {
		t.Fatalf("ToR uplink allocated %v, want 2.5 Gbps", rate)
	}
	_ = crossWant
}

func TestWaterFillingSecondLevel(t *testing.T) {
	n := newNet(t, Options{})
	top := n.Top()
	// Saturate the ToR-0 uplink with 5 cross-rack flows, plus one more
	// cross-rack flow from rack 3 to the same destination server: the
	// destination's 1 Gbps downlink is shared between one ToR-0 flow
	// (0.4167 Gbps after refill) and the rack-3 flow.
	src0 := top.RackServers(0)
	dst := top.RackServers(2)
	for i := 0; i < 5; i++ {
		n.StartFlow(src0[i], dst[i], 1, FlowTag{}, nil)
	}
	other := n.StartFlow(top.RackServers(4)[0], dst[0], 1, FlowTag{}, nil)
	n.Run(0)
	// All six flows funnel into rack 2's ToR downlink (2.5 Gbps), which is
	// the true bottleneck: 2.5G / 6 ≈ 0.4167 Gbps per flow, below both the
	// ToR-0 uplink share (0.5G) and the dst[0] downlink share (0.5G).
	want := 2.5e9 / 6
	if r := other.Rate(); math.Abs(r-want) > 1e3 {
		t.Fatalf("second-level flow rate %v, want ~%v", r, want)
	}
	if got := n.LinkRateBps(top.TorDownlink(2)); math.Abs(got-2.5e9) > 1e3 {
		t.Fatalf("bottleneck ToR downlink carries %v, want 2.5 Gbps", got)
	}
	total := n.LinkRateBps(top.ServerDownlink(dst[0]))
	if total > 1e9+1 {
		t.Fatalf("downlink oversubscribed: %v bps", total)
	}
}

func TestLoopbackFlow(t *testing.T) {
	n := newNet(t, Options{LocalBps: 8e9})
	var end Time
	n.StartFlow(3, 3, 1_000_000_000, FlowTag{}, func(f *Flow) { end = f.End })
	n.RunAll()
	if !approxDur(end, time.Second, 2*time.Millisecond) {
		t.Fatalf("loopback completed at %v, want ~1s", end)
	}
	// Loopback must not touch the fabric.
	for _, l := range n.Top().Links() {
		if n.LinkTotalBytes(l.ID) > 0 {
			t.Fatalf("loopback leaked onto link %v", l.Name)
		}
	}
}

func TestZeroByteFlow(t *testing.T) {
	n := newNet(t, Options{})
	fired := false
	n.StartFlow(0, 1, 0, FlowTag{}, func(f *Flow) {
		fired = true
		if f.End != f.Start {
			t.Errorf("zero-byte flow took %v", f.End-f.Start)
		}
	})
	n.RunAll()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestNegativeFlowPanics(t *testing.T) {
	n := newNet(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.StartFlow(0, 1, -1, FlowTag{}, nil)
}

type recObserver struct {
	started, ended []FlowID
}

func (r *recObserver) FlowStarted(f *Flow) { r.started = append(r.started, f.ID) }
func (r *recObserver) FlowEnded(f *Flow)   { r.ended = append(r.ended, f.ID) }

func TestObserver(t *testing.T) {
	n := newNet(t, Options{})
	obs := &recObserver{}
	n.AddObserver(obs)
	n.StartFlow(0, 1, 1000, FlowTag{}, nil)
	n.StartFlow(2, 3, 1000, FlowTag{}, nil)
	n.RunAll()
	if len(obs.started) != 2 || len(obs.ended) != 2 {
		t.Fatalf("observer saw %d starts, %d ends", len(obs.started), len(obs.ended))
	}
}

func TestChainedFlows(t *testing.T) {
	// A flow's completion callback starts the next flow — the scheduler
	// pattern used by job phases.
	n := newNet(t, Options{})
	var secondEnd Time
	n.StartFlow(0, 1, 125_000_000, FlowTag{}, func(*Flow) {
		n.StartFlow(1, 2, 125_000_000, FlowTag{}, func(f *Flow) { secondEnd = f.End })
	})
	n.RunAll()
	if !approxDur(secondEnd, 2*time.Second, 5*time.Millisecond) {
		t.Fatalf("chained flow completed at %v, want ~2s", secondEnd)
	}
}

func TestLinkByteConservation(t *testing.T) {
	n := newNet(t, Options{})
	top := n.Top()
	const bytes = 10_000_000
	n.StartFlow(0, 1, bytes, FlowTag{}, nil)
	n.RunAll()
	up := n.LinkTotalBytes(top.ServerUplink(0))
	down := n.LinkTotalBytes(top.ServerDownlink(1))
	if math.Abs(up-bytes) > 1 || math.Abs(down-bytes) > 1 {
		t.Fatalf("link bytes up=%v down=%v, want %v", up, down, bytes)
	}
}

func TestLinkStatsBinning(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	n := New(top, Options{StatsBinSize: time.Second, StatsLinks: []topology.LinkID{top.ServerUplink(0)}})
	// 312.5 MB at 1 Gbps = 2.5 s: bins should hold 125 MB, 125 MB, 62.5 MB.
	n.StartFlow(0, 1, 312_500_000, FlowTag{}, nil)
	n.RunAll()
	bins := n.Stats().Bytes(top.ServerUplink(0))
	if len(bins) != 3 {
		t.Fatalf("got %d bins, want 3: %v", len(bins), bins)
	}
	want := []float64{125e6, 125e6, 62.5e6}
	for i, w := range want {
		if math.Abs(bins[i]-w) > 1e3 {
			t.Fatalf("bin %d = %v, want %v", i, bins[i], w)
		}
	}
	util := n.Stats().Utilization(top.ServerUplink(0), 1e9, 3)
	if math.Abs(util[0]-1) > 1e-3 || math.Abs(util[2]-0.5) > 1e-3 {
		t.Fatalf("utilization = %v", util)
	}
}

// TestLinkStatsDropBelow drops the final bins of a network as it runs,
// as a run whose episode tracker is their only reader does, and checks
// that the bins kept are exactly the tail of an identical network's
// that kept every bin, and that accrual after a drop lands in the
// right bins, idle links included.
func TestLinkStatsDropBelow(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	opts := Options{StatsBinSize: 250 * time.Millisecond}
	drop, keep := New(top, opts), New(top, opts)
	for _, n := range []*Network{drop, keep} {
		for i := 0; i < 6; i++ {
			at := Time(i) * 1500 * time.Millisecond
			src, dst := topology.ServerID(i), topology.ServerID(40+i*5)
			n.Schedule(at, func() { n.StartFlow(src, dst, 150_000_000, FlowTag{}, nil) })
		}
	}
	st, full := drop.Stats(), keep.Stats()
	for at := 700 * time.Millisecond; at <= 15*time.Second; at += 700 * time.Millisecond {
		drop.Run(at)
		keep.Run(at)
		st.DropBelow(int(drop.LastAccrual() / st.BinSize()))
		for _, l := range st.TrackedLinks() {
			if n := len(st.Bytes(l)); n > 1 {
				t.Fatalf("at %v link %d keeps %d bins", at, l, n)
			}
		}
	}
	drop.RunAll()
	keep.RunAll()
	if st.First() == 0 {
		t.Fatal("nothing was dropped")
	}
	bins := full.Bins()
	for _, l := range st.TrackedLinks() {
		all := full.Bytes(l)
		want := all[min(st.First(), len(all)):]
		if got := st.Bytes(l); !slices.Equal(got, want) {
			t.Fatalf("link %d keeps bins %v, want the tail %v from bin %d", l, got, want, st.First())
		}
		util, fullUtil := st.Utilization(l, 1e9, bins), full.Utilization(l, 1e9, bins)
		for i := range util {
			if i >= st.First() && util[i] != fullUtil[i] || i < st.First() && util[i] != 0 {
				t.Fatalf("link %d bin %d utilization %v, kept-bins network %v", l, i, util[i], fullUtil[i])
			}
		}
	}
}

func TestStatsTrackedLinks(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	st := New(top, Options{StatsBinSize: time.Second}).Stats()
	if st == nil {
		t.Fatal("stats disabled")
	}
	// By default only the inter-switch links are binned, whatever the
	// cluster size: no server link.
	want := top.InterSwitchLinks()
	slices.Sort(want)
	if got := st.TrackedLinks(); !slices.Equal(got, want) {
		t.Fatalf("tracked %v, want the inter-switch links %v", got, want)
	}
	for s := 0; s < top.NumHosts(); s++ {
		sid := topology.ServerID(s)
		if st.Tracked(top.ServerUplink(sid)) || st.Tracked(top.ServerDownlink(sid)) {
			t.Fatalf("server %d's links tracked by default", s)
		}
	}
	// StatsLinks names exactly the links to bin.
	named := []topology.LinkID{top.ServerUplink(3), top.TorUplink(0)}
	st = New(top, Options{StatsBinSize: time.Second, StatsLinks: named}).Stats()
	if got := st.TrackedLinks(); len(got) != 2 || !st.Tracked(named[0]) || !st.Tracked(named[1]) {
		t.Fatalf("tracked %v, want %v", got, named)
	}
}

func TestMinRecomputeIntervalStillCompletes(t *testing.T) {
	n := newNet(t, Options{MinRecomputeInterval: 10 * time.Millisecond})
	var completed int
	for i := 0; i < 20; i++ {
		src := topology.ServerID(i % 8)
		dst := topology.ServerID((i + 13) % 40)
		delay := Time(i) * time.Millisecond
		n.After(delay, func() {
			n.StartFlow(src, dst, 1_000_000, FlowTag{}, func(*Flow) { completed++ })
		})
	}
	n.RunAll()
	if completed != 20 {
		t.Fatalf("completed %d of 20 flows under batched recompute", completed)
	}
}

// Property: with random workloads every flow completes, transfers exactly
// its bytes, and per-link totals equal the sum of the flows that crossed
// them.
func TestConservationProperty(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := New(top, Options{})
		wantLink := make([]float64, top.NumLinks())
		var flows []*Flow
		nf := 3 + r.IntN(12)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			bytes := int64(1000 + r.IntN(50_000_000))
			start := Time(r.IntN(1000)) * time.Millisecond
			n.After(start, func() {
				fl := n.StartFlow(src, dst, bytes, FlowTag{}, nil)
				flows = append(flows, fl)
				for _, l := range fl.Path() {
					wantLink[l] += float64(bytes)
				}
			})
		}
		n.RunAll()
		if n.ActiveFlows() != 0 || int(n.FlowsCompleted()) != nf {
			return false
		}
		for _, fl := range flows {
			if fl.Remaining() != 0 || fl.End < fl.Start {
				return false
			}
		}
		for l := range wantLink {
			got := n.LinkTotalBytes(topology.LinkID(l))
			if math.Abs(got-wantLink[l]) > 1+1e-6*wantLink[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocated link rates never exceed capacity.
func TestCapacityRespectedProperty(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := New(top, Options{})
		nf := 5 + r.IntN(30)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			n.StartFlow(src, dst, int64(1+r.IntN(1_000_000_000)), FlowTag{}, nil)
		}
		n.Run(0) // compute rates only
		for _, l := range top.Links() {
			if n.LinkRateBps(l.ID) > l.CapacityBps*(1+1e-9)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, float64) {
		top := topology.MustNew(topology.SmallConfig())
		n := New(top, Options{})
		r := stats.NewRNG(99)
		var lastEnd Time
		for i := 0; i < 50; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			bytes := int64(1000 + r.IntN(20_000_000))
			n.After(Time(r.IntN(500))*time.Millisecond, func() {
				n.StartFlow(src, dst, bytes, FlowTag{}, func(f *Flow) {
					if f.End > lastEnd {
						lastEnd = f.End
					}
				})
			})
		}
		n.RunAll()
		return lastEnd, n.TotalBytes()
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("simulation is not deterministic: (%v,%v) vs (%v,%v)", e1, b1, e2, b2)
	}
}

func TestFlowAccessors(t *testing.T) {
	n := newNet(t, Options{})
	f := n.StartFlow(0, 1, 1000, FlowTag{Job: 7, Kind: KindShuffle}, nil)
	if !f.Active() {
		t.Fatal("new flow should be active")
	}
	if f.Duration(n.Now()) != 0 {
		t.Fatal("duration at start should be 0")
	}
	if f.String() == "" || f.Tag.Kind.String() != "shuffle" {
		t.Fatal("string renderings broken")
	}
	n.RunAll()
	if f.Active() || f.Duration(0) != f.End-f.Start {
		t.Fatal("completed flow state wrong")
	}
}

func TestFlowKindStrings(t *testing.T) {
	kinds := []FlowKind{KindOther, KindShuffle, KindExtractRead, KindReplicate,
		KindEvacuate, KindIngest, KindEgress, KindControl}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

// Batched recomputation must conserve per-flow bytes exactly, like the
// exact mode; only the timing granularity differs.
func TestBatchedConservationProperty(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := New(top, Options{MinRecomputeInterval: 20 * time.Millisecond})
		nf := 3 + r.IntN(10)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			bytes := int64(1000 + r.IntN(5_000_000))
			n.After(Time(r.IntN(200))*time.Millisecond, func() {
				n.StartFlow(src, dst, bytes, FlowTag{}, nil)
			})
		}
		n.RunAll()
		return n.ActiveFlows() == 0 && int(n.FlowsCompleted()) == nf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationNeverExceedsCapacity(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	var all []topology.LinkID
	for _, l := range top.Links() {
		all = append(all, l.ID)
	}
	n := New(top, Options{StatsBinSize: 100 * time.Millisecond, StatsLinks: all})
	// Saturate several paths simultaneously.
	for i := 0; i < 20; i++ {
		n.StartFlow(topology.ServerID(i%40), topology.ServerID((i+40)%80), 50_000_000, FlowTag{}, nil)
	}
	n.RunAll()
	bins := n.Stats().Bins()
	for _, l := range top.Links() {
		for i, u := range n.Stats().Utilization(l.ID, l.CapacityBps, bins) {
			if u > 1.0001 {
				t.Fatalf("link %s bin %d utilization %v > 1", l.Name, i, u)
			}
		}
	}
}

func TestCancelFlow(t *testing.T) {
	n := newNet(t, Options{})
	obs := &recObserver{}
	n.AddObserver(obs)
	var canceled *Flow
	doneRan := false
	f := n.StartFlow(0, 1, 125_000_000, FlowTag{Job: 3}, func(fl *Flow) {
		doneRan = true
		canceled = fl
	})
	// Cancel halfway through the transfer.
	n.After(500*time.Millisecond, func() { n.Cancel(f) })
	n.RunAll()
	if !doneRan || canceled == nil || !canceled.Canceled {
		t.Fatal("cancel callback not delivered")
	}
	if n.ActiveFlows() != 0 {
		t.Fatal("canceled flow still active")
	}
	// Half the bytes moved.
	moved := canceled.Transferred()
	if math.Abs(moved-62_500_000) > 1e6 {
		t.Fatalf("transferred %v bytes, want ~62.5 MB", moved)
	}
	if len(obs.ended) != 1 {
		t.Fatal("observer missed the canceled flow")
	}
	// Canceling again is a no-op.
	n.Cancel(f)
}

func TestCancelFreesBandwidth(t *testing.T) {
	n := newNet(t, Options{})
	var end Time
	slow := n.StartFlow(0, 1, 125_000_000, FlowTag{Job: 1}, nil)
	n.StartFlow(0, 2, 125_000_000, FlowTag{Job: 2}, func(f *Flow) { end = f.End })
	// At 1s, cancel the first flow: the second jumps from 0.5 to 1 Gbps
	// and finishes its remaining 62.5 MB in 0.5s -> total 1.5s.
	n.After(time.Second, func() { n.Cancel(slow) })
	n.RunAll()
	if !approxDur(end, 1500*time.Millisecond, 5*time.Millisecond) {
		t.Fatalf("survivor completed at %v, want ~1.5s", end)
	}
}

func TestCancelWhere(t *testing.T) {
	n := newNet(t, Options{})
	for i := 0; i < 6; i++ {
		job := 1
		if i >= 4 {
			job = 2
		}
		n.StartFlow(topology.ServerID(i), topology.ServerID(40+i), 1<<30, FlowTag{Job: job}, nil)
	}
	n.Run(0)
	got := n.CancelWhere(func(f *Flow) bool { return f.Tag.Job == 1 })
	if got != 4 {
		t.Fatalf("canceled %d flows, want 4", got)
	}
	if n.ActiveFlows() != 2 {
		t.Fatalf("%d flows still active, want 2", n.ActiveFlows())
	}
}
