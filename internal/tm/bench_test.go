package tm

import (
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// benchRecords builds a synthetic day-scale record set once.
func benchRecords(n int) []trace.FlowRecord {
	r := stats.NewRNG(1)
	out := make([]trace.FlowRecord, n)
	for i := range out {
		start := netsim.Time(r.IntN(3600)) * time.Second
		out[i] = trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(r.IntN(84)),
			Dst:   topology.ServerID(r.IntN(84)),
			Bytes: int64(1 + r.IntN(10_000_000)),
			Start: start,
			End:   start + netsim.Time(1+r.IntN(20))*time.Second,
		}
	}
	return out
}

// BenchmarkServerMatrix measures one-window TM aggregation over 100k
// records.
func BenchmarkServerMatrix(b *testing.B) {
	records := benchRecords(100_000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ServerMatrix(records, 84, 0, time.Hour)
	}
}

// BenchmarkChangeRingPush measures Figure 10's online churn: an hour of
// 10 s server matrices pushed through a ring at lags 1 and 10.
func BenchmarkChangeRingPush(b *testing.B) {
	records := benchRecords(100_000)
	series := binSeries(records, 84, 10*time.Second, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := NewChangeRing(1, 10)
		for _, m := range series {
			ring.Push(m)
		}
	}
}
