package congestion

import (
	"sort"

	"dctraffic/internal/det"
	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
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

// AttributeIndexed computes one record chunk's unnormalized attribution
// sums against a prebuilt episode index: for every congestion episode,
// the bytes of each flow kind crossing the hot link during the episode,
// assuming each flow's bytes spread uniformly over its lifetime (the
// flow-record approximation used throughout). Share and TotalBytes are
// left zero; combine chunks (even a single one) with MergeAttribution
// to normalize. The result is the paper's finding in table form:
// reduce-phase shuffles dominate, with extract reads and evacuations as
// the unexpected contributors.
func AttributeIndexed(records []trace.FlowRecord, idx *EpisodeIndex, top *topology.Topology) Attribution {
	a := Attribution{BytesOnCongested: make(map[netsim.FlowKind]float64)}
	for _, r := range records {
		dur := r.End - r.Start
		if dur <= 0 || r.Bytes == 0 {
			continue
		}
		rate := float64(r.Bytes) / dur.Seconds()
		for _, l := range top.PathK(r.Src, r.Dst, uint64(r.ID)) {
			for _, e := range idx.Link(l) {
				if e.Start >= r.End {
					break
				}
				lo, hi := e.Start, e.End
				if r.Start > lo {
					lo = r.Start
				}
				if r.End < hi {
					hi = r.End
				}
				if hi <= lo {
					continue
				}
				a.BytesOnCongested[r.Tag.Kind] += rate * (hi - lo).Seconds()
			}
		}
	}
	return a
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
