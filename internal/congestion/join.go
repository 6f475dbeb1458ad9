package congestion

import (
	"slices"

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
	joined  flowSet // the flows whose record has joined
	hotFlow flowSet // the joined flows that overlapped congestion
	path    []topology.LinkID
}

// flowSet holds one bit per flow id.
type flowSet []uint64

func (s *flowSet) add(id netsim.FlowID) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

func (s flowSet) has(id netsim.FlowID) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(s) && s[w]&(1<<(id&63)) != 0
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
	if r.ID >= 0 {
		j.joined.add(r.ID)
		if overlap {
			j.hotFlow.add(r.ID)
		}
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
func (j *RecordJoin) congested(id netsim.FlowID) bool { return j.hotFlow.has(id) }

// ReadTally renders Figure 8 online: it tallies the application log's
// read attempts, per period, by whether their flow joined a RecordJoin
// as congested. A read counts once its flow has joined, when the flow's
// congested bit is final; until then it waits. A local read (no flow)
// counts in the clear class as soon as it arrives: it cannot have
// crossed a hot link.
type ReadTally struct {
	join    *RecordJoin
	dayLen  netsim.Time
	days    []readBucket
	waiting []waitingRead
}

type readBucket struct {
	congested, congestedFail int
	clear, clearFail         int
}

// waitingRead is a read attempt whose flow had not joined when it
// arrived, reduced to what its tally needs.
type waitingRead struct {
	flow   netsim.FlowID
	day    int32
	failed bool
}

// NewReadTally tallies against j's congested bits over numDays periods
// of dayLen; reads starting outside them are not counted.
func NewReadTally(j *RecordJoin, dayLen netsim.Time, numDays int) *ReadTally {
	return &ReadTally{join: j, dayLen: dayLen, days: make([]readBucket, numDays)}
}

// Add takes one read attempt, in any order relative to its flow's join.
// Waiting reads are checked against the joins when their buffer fills,
// which then keeps at least half of it free, so each check pays for the
// reads appended since the last.
func (t *ReadTally) Add(ra eventlog.ReadAttempt) {
	day := int(ra.Start / t.dayLen)
	if day < 0 || day >= len(t.days) {
		return
	}
	if ra.Flow < 0 || t.join.joined.has(ra.Flow) {
		t.count(day, ra.Failed, t.join.congested(ra.Flow))
		return
	}
	if len(t.waiting) == cap(t.waiting) {
		t.countJoined()
		t.waiting = slices.Grow(t.waiting, len(t.waiting))
	}
	t.waiting = append(t.waiting, waitingRead{flow: ra.Flow, day: int32(day), failed: ra.Failed})
}

// Waiting reports how many read attempts the tally holds: those whose
// flow had not joined when last checked.
func (t *ReadTally) Waiting() int { return len(t.waiting) }

// countJoined counts the waiting reads whose flow has joined since.
func (t *ReadTally) countJoined() {
	kept := t.waiting[:0]
	for _, w := range t.waiting {
		if t.join.joined.has(w.flow) {
			t.count(int(w.day), w.failed, t.join.congested(w.flow))
		} else {
			kept = append(kept, w)
		}
	}
	t.waiting = kept
}

func (t *ReadTally) count(day int, failed, congested bool) {
	b := &t.days[day]
	if congested {
		b.congested++
		if failed {
			b.congestedFail++
		}
	} else {
		b.clear++
		if failed {
			b.clearFail++
		}
	}
}

// Impact renders Figure 8. Call it once every record has joined: the
// reads still waiting count now, by their flow's congested bit, so a
// read whose flow never joined counts as clear.
func (t *ReadTally) Impact() []DayImpact {
	for _, w := range t.waiting {
		t.count(int(w.day), w.failed, t.join.congested(w.flow))
	}
	t.waiting = t.waiting[:0]
	out := make([]DayImpact, len(t.days))
	for d, b := range t.days {
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
