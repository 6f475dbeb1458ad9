package congestion

import (
	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// RecordJoin joins flow records, one at a time, against an episode
// index: the join behind Figure 7, the attribution table and Figure 8.
// Each record reconstructs its path from its flow id (the ECMP key on
// multipath fabrics) and keeps nothing of itself but a congested bit.
//
// A record may join as soon as its index is final through the bin
// holding its End (an EpisodeTracker advanced past that bin): it then
// gets what a join against the finished index gives. Records join in
// the caller's order, and the float sums follow that order.
type RecordJoin struct {
	top *topology.Topology
	idx *EpisodeIndex

	// Overlap and All are Figure 7: the average rates (Mbps) of the
	// joined flows whose path had an overlapping episode, and of every
	// joined flow with a positive rate.
	Overlap, All *stats.StreamCDF

	part    map[netsim.FlowKind]float64 // the unsealed attribution part
	parts   []Attribution
	hotFlow []uint64 // one bit per flow id: the flow overlapped congestion
	path    []topology.LinkID
}

// NewRecordJoin joins against idx, which may keep growing (an
// EpisodeTracker's). cdfCap is the Figure 7 CDFs' stats.NewStreamCDF
// sample cap.
func NewRecordJoin(idx *EpisodeIndex, top *topology.Topology, cdfCap int) *RecordJoin {
	return &RecordJoin{
		top:     top,
		idx:     idx,
		Overlap: stats.NewStreamCDF(cdfCap),
		All:     stats.NewStreamCDF(cdfCap),
		part:    make(map[netsim.FlowKind]float64),
	}
}

// Join folds one record in: its rate into Figure 7's CDFs, the bytes it
// moved across each path link during that link's episodes into the
// current attribution part (its bytes spread uniformly over its
// lifetime, the flow-record approximation used throughout), and, if an
// episode on its path overlapped [Start, End), its flow id into the
// congested set.
func (j *RecordJoin) Join(r *trace.FlowRecord) {
	j.path = j.top.AppendPathK(j.path[:0], r.Src, r.Dst, uint64(r.ID))
	dur := r.End - r.Start
	attribute := dur > 0 && r.Bytes != 0
	var byteRate float64
	if attribute {
		byteRate = float64(r.Bytes) / dur.Seconds()
	}
	overlap := false
	for _, l := range j.path {
		es := j.idx.Link(l)
		overlap = overlap || overlapsAny(es, r.Start, r.End)
		if !attribute {
			continue
		}
		for _, e := range es {
			if e.Start >= r.End {
				break
			}
			lo, hi := max(e.Start, r.Start), min(e.End, r.End)
			if hi <= lo {
				continue
			}
			j.part[r.Tag.Kind] += byteRate * (hi - lo).Seconds()
		}
	}
	if rate := r.AvgRateBps(); rate > 0 {
		j.All.Add(rate / 1e6)
		if overlap {
			j.Overlap.Add(rate / 1e6)
		}
	}
	if overlap && r.ID >= 0 {
		w := int(r.ID >> 6)
		if w >= len(j.hotFlow) {
			j.hotFlow = append(j.hotFlow, make([]uint64, w+1-len(j.hotFlow))...)
		}
		j.hotFlow[w] |= 1 << (r.ID & 63)
	}
}

// SealPart closes the current attribution part. MergeAttribution sums
// part by part, so where parts end is part of the result.
func (j *RecordJoin) SealPart() {
	j.parts = append(j.parts, Attribution{BytesOnCongested: j.part})
	j.part = make(map[netsim.FlowKind]float64)
}

// Attribution merges the sealed parts and the current one with
// MergeAttribution: the paper's finding in table form, reduce-phase
// shuffles dominating, with extract reads and evacuations as the
// unexpected contributors.
func (j *RecordJoin) Attribution() Attribution {
	return MergeAttribution(append(j.parts[:len(j.parts):len(j.parts)], Attribution{BytesOnCongested: j.part}))
}

// congested reports whether a joined record of flow id overlapped
// congestion.
func (j *RecordJoin) congested(id netsim.FlowID) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(j.hotFlow) && j.hotFlow[w]&(1<<(id&63)) != 0
}

// ReadFailureImpact renders Figure 8: it tallies the application log's
// read attempts, per period of dayLen, by whether their flow joined as
// congested. Local reads (no flow) count in the clear class: they cannot
// have crossed a hot link.
func (j *RecordJoin) ReadFailureImpact(log *eventlog.Log, dayLen netsim.Time, numDays int) []DayImpact {
	type bucket struct {
		congested, congestedFail int
		clear, clearFail         int
	}
	buckets := make([]bucket, numDays)
	for _, ra := range log.Reads() {
		day := int(ra.Start / dayLen)
		if day < 0 || day >= numDays {
			continue
		}
		b := &buckets[day]
		if j.congested(ra.Flow) {
			b.congested++
			if ra.Failed {
				b.congestedFail++
			}
		} else {
			b.clear++
			if ra.Failed {
				b.clearFail++
			}
		}
	}
	out := make([]DayImpact, numDays)
	for d, b := range buckets {
		di := DayImpact{Day: d, CongestedReads: b.congested, ClearReads: b.clear}
		if b.congested > 0 {
			di.PFailCongested = float64(b.congestedFail) / float64(b.congested)
		}
		if b.clear > 0 {
			di.PFailClear = float64(b.clearFail) / float64(b.clear)
		}
		if di.PFailClear > 0 && b.congested > 0 {
			di.IncreasePct = (di.PFailCongested/di.PFailClear - 1) * 100
		}
		out[d] = di
	}
	return out
}
