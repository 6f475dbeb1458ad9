package netsim

import (
	"testing"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// BenchmarkScheduleRun isolates the event core: schedule 4096 callbacks
// across 64 distinct instants (FIFO runs within each) and drain the
// queue. allocs/op is the interesting number — the value-slice heap
// schedules without a per-event allocation, so steady state amortizes to
// the queue's growth reallocations only.
func BenchmarkScheduleRun(b *testing.B) {
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Sim
		for j := 0; j < 4096; j++ {
			s.Schedule(Time(j%64)*time.Millisecond, fn)
		}
		s.RunAll()
		if s.EventsProcessed() != 4096 {
			b.Fatal("events lost")
		}
	}
}

// BenchmarkFlowChurn measures simulator throughput in flows completed per
// benchmark op: a churning mix of small and medium flows on the small
// topology with exact rate recomputation.
func BenchmarkFlowChurn(b *testing.B) {
	top := topology.MustNew(topology.SmallConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(top, Options{})
		r := stats.NewRNG(uint64(i))
		for f := 0; f < 1000; f++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			n.After(Time(r.IntN(1000))*time.Millisecond, func() {
				n.StartFlow(src, dst, int64(1+r.IntN(4_000_000)), FlowTag{}, nil)
			})
		}
		n.RunAll()
		if n.FlowsCompleted() != 1000 {
			b.Fatal("flows lost")
		}
	}
}

// BenchmarkFlowChurnBatched is the same workload under 10 ms rate
// batching — the configuration used for day-scale runs.
func BenchmarkFlowChurnBatched(b *testing.B) {
	top := topology.MustNew(topology.SmallConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(top, Options{MinRecomputeInterval: 10 * time.Millisecond})
		r := stats.NewRNG(uint64(i))
		for f := 0; f < 1000; f++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			n.After(Time(r.IntN(1000))*time.Millisecond, func() {
				n.StartFlow(src, dst, int64(1+r.IntN(4_000_000)), FlowTag{}, nil)
			})
		}
		n.RunAll()
	}
}

// BenchmarkSimulate is the paper-scale simulate phase: DefaultConfig
// (75 racks × 20 servers) under a churning closed-loop workload of 7500
// flows, 90% rack-local (the paper's work-seeks-bandwidth locality),
// whose completion callbacks chain replacements, under the day-scale
// 10 ms rate batching.
func BenchmarkSimulate(b *testing.B) {
	cfg := topology.DefaultConfig()
	top := topology.MustNew(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(top, Options{MinRecomputeInterval: 10 * time.Millisecond})
		r := stats.NewRNG(1)
		spr := cfg.ServersPerRack
		pair := func() (topology.ServerID, topology.ServerID) {
			if r.Float64() < 0.9 {
				rack := r.IntN(cfg.Racks)
				return topology.ServerID(rack*spr + r.IntN(spr)),
					topology.ServerID(rack*spr + r.IntN(spr))
			}
			return topology.ServerID(r.IntN(top.NumHosts())), topology.ServerID(r.IntN(top.NumHosts()))
		}
		var chain func(depth int) func(*Flow)
		chain = func(depth int) func(*Flow) {
			if depth <= 0 {
				return nil
			}
			return func(*Flow) {
				src, dst := pair()
				n.StartFlow(src, dst, int64(1+r.IntN(30_000_000)), FlowTag{}, chain(depth-1))
			}
		}
		for f := 0; f < 2500; f++ {
			n.After(Time(r.IntN(500))*time.Millisecond, func() {
				src, dst := pair()
				n.StartFlow(src, dst, int64(1+r.IntN(30_000_000)), FlowTag{}, chain(2))
			})
		}
		n.RunAll()
		if n.FlowsCompleted() != 7500 {
			b.Fatalf("flows lost: %d", n.FlowsCompleted())
		}
	}
}

// BenchmarkMaxMinRecompute isolates the progressive-filling allocation
// with 500 concurrent flows (the worst case: a full re-solve of every
// flow, as if all of them just changed).
func BenchmarkMaxMinRecompute(b *testing.B) {
	top := topology.MustNew(topology.SmallConfig())
	n := New(top, Options{})
	r := stats.NewRNG(1)
	for f := 0; f < 500; f++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		n.StartFlow(src, dst, 1<<40, FlowTag{}, nil) // effectively infinite
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.recomputeRates()
	}
}

// BenchmarkMaxMinRecomputeLarge is the full re-solve at paper scale: the
// DefaultConfig topology (1500 servers) carrying 5000 concurrent flows.
func BenchmarkMaxMinRecomputeLarge(b *testing.B) {
	top := topology.MustNew(topology.DefaultConfig())
	n := New(top, Options{})
	r := stats.NewRNG(1)
	for f := 0; f < 5000; f++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		n.StartFlow(src, dst, 1<<40, FlowTag{}, nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.recomputeRates()
	}
}

// BenchmarkIncrementalRecompute measures the dirty-component path: one
// rack-local flow arrives into (and is then reaped from) a steady state
// of 5000 rack-local flows at paper scale. Only the arrival's rack
// component is re-solved, so the cost is proportional to the component
// (~67 flows), not the cluster — compare BenchmarkMaxMinRecomputeLarge,
// which re-solves all 5000. Rack-local steady state mirrors the paper's
// work-seeks-bandwidth locality; fully random traffic instead couples
// every rack through the agg links into one component, degenerating to
// the Large case. The Flow object accounts for the per-op allocations.
func BenchmarkIncrementalRecompute(b *testing.B) {
	cfg := topology.DefaultConfig()
	top := topology.MustNew(cfg)
	n := New(top, Options{})
	r := stats.NewRNG(1)
	spr := cfg.ServersPerRack
	for f := 0; f < 5000; f++ {
		rack := f % cfg.Racks
		src := topology.ServerID(rack*spr + r.IntN(spr))
		dst := topology.ServerID(rack*spr + (int(src)+1+r.IntN(spr-1))%spr)
		n.StartFlow(src, dst, 1<<40, FlowTag{}, nil)
	}
	n.recomputeDirty() // reach steady state
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rack := i % cfg.Racks
		src := topology.ServerID(rack*spr + r.IntN(spr))
		dst := topology.ServerID(rack*spr + (int(src)+1+r.IntN(spr-1))%spr)
		f := n.StartFlow(src, dst, 1<<40, FlowTag{}, nil)
		n.recomputeDirty()
		n.Cancel(f)
		n.recomputeDirty()
	}
}
