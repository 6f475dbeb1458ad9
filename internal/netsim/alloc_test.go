package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// Max-min allocation invariants, checked after a recompute:
//  1. feasibility — no link carries more than its capacity;
//  2. bottleneck property — every fabric flow crosses at least one
//     saturated link on which it has a maximal rate. Together these
//     certify the allocation is the (unique) max-min fair one.
func checkMaxMinInvariants(t *testing.T, n *Network) {
	t.Helper()
	const rel = 1e-9
	top := n.Top()
	for _, l := range top.Links() {
		if n.LinkRateBps(l.ID) > l.CapacityBps*(1+rel)+1 {
			t.Fatalf("link %s over capacity: %v > %v", l.Name, n.LinkRateBps(l.ID), l.CapacityBps)
		}
	}
	// Maximal rate per link among the flows crossing it.
	maxRate := make(map[topology.LinkID]float64)
	for _, f := range n.active {
		for _, l := range f.path {
			if f.rate > maxRate[l] {
				maxRate[l] = f.rate
			}
		}
	}
	for _, f := range n.active {
		if len(f.path) == 0 {
			continue // loopback: pinned at LocalBps, not allocated
		}
		bottlenecked := false
		for _, l := range f.path {
			saturated := n.linkRateB[l] >= n.linkCapB[l]*(1-1e-9)-1
			maximal := f.rate >= maxRate[l]*(1-1e-9)
			if saturated && maximal {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("%v (rate %v) has no bottleneck link", f, f.Rate())
		}
	}
}

// Property: after arbitrary arrivals the incremental allocator satisfies
// the max-min invariants.
func TestMaxMinInvariantsProperty(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := New(top, Options{})
		nf := 1 + r.IntN(60)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			n.StartFlow(src, dst, 1<<40, FlowTag{}, nil)
		}
		n.Run(0) // compute rates only
		checkMaxMinInvariants(t, n)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Invariants must also hold mid-run, after completions and cancels have
// reshaped the active set through many dirty-component recomputes.
func TestMaxMinInvariantsAfterChurn(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	r := stats.NewRNG(7)
	n := New(top, Options{})
	var cancelable []*Flow
	for i := 0; i < 300; i++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		bytes := int64(1_000_000 + r.IntN(100_000_000))
		at := Time(r.IntN(2000)) * time.Millisecond
		n.After(at, func() {
			f := n.StartFlow(src, dst, bytes, FlowTag{}, nil)
			if len(cancelable) < 30 {
				cancelable = append(cancelable, f)
			}
		})
	}
	n.After(1500*time.Millisecond, func() {
		for _, f := range cancelable {
			n.Cancel(f)
		}
	})
	for ms := 500; ms <= 2500; ms += 500 {
		n.After(Time(ms)*time.Millisecond, func() {
			checkMaxMinInvariants(t, n)
		})
	}
	n.RunAll()
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows never finished", n.ActiveFlows())
	}
}

// Property: the incremental dirty-component allocator and a full
// re-solve on every step produce bit-identical simulations — same
// completion times, same per-link byte totals, same total bytes — on
// random workloads with churn, in both exact and batched recompute modes.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	run := func(seed uint64, full bool, batch Time) (float64, []float64, []Time) {
		r := stats.NewRNG(seed)
		n := New(top, Options{fullRecompute: full, MinRecomputeInterval: batch})
		var ends []Time
		nf := 3 + r.IntN(25)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			bytes := int64(1000 + r.IntN(50_000_000))
			start := Time(r.IntN(1000)) * time.Millisecond
			cancelAfter := Time(0)
			if r.IntN(4) == 0 {
				cancelAfter = Time(1+r.IntN(500)) * time.Millisecond
			}
			n.After(start, func() {
				f := n.StartFlow(src, dst, bytes, FlowTag{}, func(f *Flow) {
					ends = append(ends, f.End)
				})
				if cancelAfter > 0 {
					n.After(cancelAfter, func() { n.Cancel(f) })
				}
			})
		}
		n.RunAll()
		linkBytes := make([]float64, top.NumLinks())
		for l := range linkBytes {
			linkBytes[l] = n.LinkTotalBytes(topology.LinkID(l))
		}
		return n.TotalBytes(), linkBytes, ends
	}
	f := func(seed uint64, batched bool) bool {
		var batch Time
		if batched {
			batch = 20 * time.Millisecond
		}
		ib, il, ie := run(seed, false, batch)
		fb, fl, fe := run(seed, true, batch)
		if ib != fb || len(ie) != len(fe) {
			return false
		}
		for i := range ie {
			if ie[i] != fe[i] {
				return false
			}
		}
		for l := range il {
			if il[l] != fl[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A canceled flow must vanish from the per-link flow lists, and the moved
// flow's back-indices must stay correct through many swap-removals.
func TestLinkFlowListConsistency(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	r := stats.NewRNG(3)
	n := New(top, Options{})
	var flows []*Flow
	for i := 0; i < 200; i++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		flows = append(flows, n.StartFlow(src, dst, 1<<40, FlowTag{}, nil))
	}
	// Cancel half in random order.
	for i := 0; i < 100; i++ {
		n.Cancel(flows[r.IntN(len(flows))])
	}
	// Every remaining active flow must be exactly where linkIdx says,
	// and list membership must match path membership.
	total := 0
	for l, fl := range n.linkFlows {
		total += len(fl)
		for j, f := range fl {
			if !f.Active() {
				t.Fatalf("retired flow %v still on link %d", f, l)
			}
			found := false
			for k, pl := range f.path {
				if int(pl) == l {
					if int(f.linkIdx[k]) != j {
						t.Fatalf("flow %v linkIdx stale: link %d says %d, list has it at %d", f, l, f.linkIdx[k], j)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("flow %v on link %d not in its path", f, l)
			}
		}
	}
	want := 0
	for _, f := range flows {
		if f.Active() {
			want += len(f.path)
		}
	}
	if total != want {
		t.Fatalf("link lists hold %d entries, active paths have %d", total, want)
	}
}
