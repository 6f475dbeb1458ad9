package congestion

import (
	"sort"

	"dctraffic/internal/det"
	"dctraffic/internal/netsim"
)

// Attribution answers §4.2's operator question: when links run hot, which
// application activity is responsible? It joins the network log with the
// application attribution carried in flow tags — the join the paper's
// server-side instrumentation makes possible and SNMP cannot.
type Attribution struct {
	// BytesOnCongested is, per flow kind, the bytes that kind moved
	// across links during their high-utilization episodes.
	BytesOnCongested map[netsim.FlowKind]float64
	// Share is BytesOnCongested normalized to sum to 1.
	Share map[netsim.FlowKind]float64
	// TotalBytes is the denominator.
	TotalBytes float64
}

// Ranked returns the kinds by descending share.
func (a Attribution) Ranked() []netsim.FlowKind {
	kinds := make([]netsim.FlowKind, 0, len(a.Share))
	for k := range a.Share {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if a.Share[kinds[i]] != a.Share[kinds[j]] {
			return a.Share[kinds[i]] > a.Share[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	return kinds
}

// MergeAttribution combines per-shard attribution sums in fixed order —
// shard order outermost, ascending flow kind within a shard — then
// normalizes. The reduction runs on one goroutine over a deterministic
// order, so the merged result is a pure function of the shard
// decomposition regardless of how the shards were computed.
func MergeAttribution(parts []Attribution) Attribution {
	out := Attribution{
		BytesOnCongested: make(map[netsim.FlowKind]float64),
		Share:            make(map[netsim.FlowKind]float64),
	}
	for _, p := range parts {
		for _, k := range det.SortedKeys(p.BytesOnCongested) {
			out.BytesOnCongested[k] += p.BytesOnCongested[k]
		}
	}
	for _, k := range det.SortedKeys(out.BytesOnCongested) {
		out.TotalBytes += out.BytesOnCongested[k]
	}
	if out.TotalBytes > 0 {
		for k, v := range out.BytesOnCongested {
			out.Share[k] = v / out.TotalBytes
		}
	}
	return out
}
