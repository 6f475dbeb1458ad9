// Package congestion implements the hot-spot analyses of §4.2: detecting
// high-utilization episodes on links (Figure 5), their duration
// distribution (Figure 6), the rates of flows that overlap congestion
// versus all flows (Figure 7), the correlation between high utilization
// and application read failures (Figure 8), and the §4.4 incast
// preconditions audit.
package congestion

import (
	"sort"
	"time"

	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// DefaultThreshold is the paper's hot-spot utilization constant C. The
// paper notes 0.9 or 0.95 yield qualitatively similar results.
const DefaultThreshold = 0.7

// Episode is a maximal run of consecutive bins during which one link's
// utilization stayed at or above the threshold.
type Episode struct {
	Link  topology.LinkID
	Start netsim.Time // inclusive
	End   netsim.Time // exclusive
}

// Duration returns the episode length.
func (e Episode) Duration() netsim.Time { return e.End - e.Start }

// Detect scans the recorded utilization of the given links (nil means the
// topology's inter-switch links — the set the paper reports on) and
// returns all episodes at or above threshold (<=0 means DefaultThreshold),
// ordered by link then start time.
func Detect(st *netsim.LinkStats, top *topology.Topology, threshold float64, links []topology.LinkID) []Episode {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if links == nil {
		links = top.InterSwitchLinks()
	}
	bin := st.BinSize()
	var out []Episode
	for _, id := range links {
		if !st.Tracked(id) {
			continue
		}
		capBps := top.Link(id).CapacityBps
		bytes := st.Bytes(id)
		capBytesPerBin := capBps / 8 * bin.Seconds()
		runStart := -1
		for i := 0; i <= len(bytes); i++ {
			hot := i < len(bytes) && capBytesPerBin > 0 && bytes[i]/capBytesPerBin >= threshold
			if hot && runStart < 0 {
				runStart = i
			}
			if !hot && runStart >= 0 {
				out = append(out, Episode{
					Link:  id,
					Start: netsim.Time(runStart) * bin,
					End:   netsim.Time(i) * bin,
				})
				runStart = -1
			}
		}
	}
	return out
}

// FracLinksWithEpisodeAtLeast reports the fraction of the given links that
// experienced at least one episode of at least minDur — the paper's "86%
// of links observe congestion lasting at least 10 seconds, 15% at least
// 100 seconds".
func FracLinksWithEpisodeAtLeast(eps []Episode, links []topology.LinkID, minDur netsim.Time) float64 {
	if len(links) == 0 {
		return 0
	}
	hit := make(map[topology.LinkID]bool)
	for _, e := range eps {
		if e.Duration() >= minDur {
			hit[e.Link] = true
		}
	}
	n := 0
	for _, l := range links {
		if hit[l] {
			n++
		}
	}
	return float64(n) / float64(len(links))
}

// DurationStats renders Figure 6: the distribution of episode lengths
// (seconds), the count of episodes longer than 10 s, and the longest.
func DurationStats(eps []Episode) (cdf *stats.CDF, over10s int, longestSec float64) {
	cdf = &stats.CDF{}
	for _, e := range eps {
		d := e.Duration().Seconds()
		cdf.Add(d)
		if d > 10 {
			over10s++
		}
		if d > longestSec {
			longestSec = d
		}
	}
	return cdf, over10s, longestSec
}

// EpisodeIndex answers interval-overlap queries per link. Build once
// with NewEpisodeIndex; it is immutable afterwards and safe for
// concurrent readers, so shard-parallel record joins can share one.
type EpisodeIndex struct {
	byLink map[topology.LinkID][]Episode // sorted by start
}

// NewEpisodeIndex indexes a detected episode set by link.
func NewEpisodeIndex(eps []Episode) *EpisodeIndex {
	idx := &EpisodeIndex{byLink: make(map[topology.LinkID][]Episode)}
	for _, e := range eps {
		idx.byLink[e.Link] = append(idx.byLink[e.Link], e)
	}
	for l := range idx.byLink {
		es := idx.byLink[l]
		sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
	}
	return idx
}

// Overlaps reports whether link l had an episode intersecting [from, to).
func (idx *EpisodeIndex) Overlaps(l topology.LinkID, from, to netsim.Time) bool {
	es := idx.byLink[l]
	// First episode with End > from.
	i := sort.Search(len(es), func(i int) bool { return es[i].End > from })
	return i < len(es) && es[i].Start < to
}

// Link returns link l's episodes sorted by start time. Read-only.
func (idx *EpisodeIndex) Link(l topology.LinkID) []Episode { return idx.byLink[l] }

// FlowOverlapsCongestion reports whether any link of the flow's path had
// an overlapping episode. The path is reconstructed from the record's
// flow id, which doubles as the ECMP key on multipath fabrics.
func FlowOverlapsCongestion(r trace.FlowRecord, idx *EpisodeIndex, top *topology.Topology) bool {
	for _, l := range top.PathK(r.Src, r.Dst, uint64(r.ID)) {
		if idx.Overlaps(l, r.Start, r.End) {
			return true
		}
	}
	return false
}

// OverlapRateCDFsIndexed builds Figure 7 over one record chunk: the
// rate distributions (Mbps) of the flows that overlapped congestion and
// of all flows, joined against a prebuilt episode index. The analysis
// joins every chunk with one index, then folds each chunk's CDFs into a
// stats.StreamCDF with MergeCDF in chunk order.
func OverlapRateCDFsIndexed(records []trace.FlowRecord, idx *EpisodeIndex, top *topology.Topology) (overlap, all *stats.CDF) {
	overlap, all = &stats.CDF{}, &stats.CDF{}
	for _, r := range records {
		rate := r.AvgRateBps()
		if rate <= 0 {
			continue
		}
		all.Add(rate / 1e6)
		if FlowOverlapsCongestion(r, idx, top) {
			overlap.Add(rate / 1e6)
		}
	}
	return overlap, all
}

// DayImpact is one bar of Figure 8: within one day, how much more likely a
// read attempt was to fail when its flow crossed a high-utilization link.
type DayImpact struct {
	Day            int
	CongestedReads int
	ClearReads     int
	PFailCongested float64
	PFailClear     float64
	// IncreasePct is (PFailCongested/PFailClear − 1)·100; 0 when either
	// class is empty or the clear class saw no failures.
	IncreasePct float64
}

// ReadFailureImpact joins the application log's read attempts with
// congestion episodes (via each attempt's flow path), grouped per day.
// Local reads (no flow) are counted in the clear class: they cannot have
// crossed a hot link.
func ReadFailureImpact(log *eventlog.Log, records []trace.FlowRecord, eps []Episode, top *topology.Topology, dayLen netsim.Time, numDays int) []DayImpact {
	idx := NewEpisodeIndex(eps)
	byID := make(map[netsim.FlowID]trace.FlowRecord, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
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
		congested := false
		if ra.Flow >= 0 {
			if r, ok := byID[ra.Flow]; ok {
				congested = FlowOverlapsCongestion(r, idx, top)
			}
		}
		b := &buckets[day]
		if congested {
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

// ConcurrencySeries counts, per utilization bin, how many of the given
// links were congested simultaneously — the correlation the paper notes
// for short congestion periods (blue circles of Figure 5).
func ConcurrencySeries(eps []Episode, binSize netsim.Time, horizon netsim.Time) []int {
	n := int(horizon / binSize)
	out := make([]int, n)
	for _, e := range eps {
		for b := int(e.Start / binSize); b < int(e.End/binSize) && b < n; b++ {
			if b >= 0 {
				out[b]++
			}
		}
	}
	return out
}

// CorrelationStats quantifies Figure 5's observation that short
// congestion periods are correlated across many links while long ones
// localize: for each episode, how many OTHER links were simultaneously
// hot at its midpoint, averaged separately over short (<=10 s) and long
// episodes.
type CorrelationStats struct {
	ShortEpisodes  int
	LongEpisodes   int
	MeanCoHotShort float64 // other hot links during short episodes
	MeanCoHotLong  float64 // other hot links during long episodes
}

// Correlate computes CorrelationStats over a detected episode set.
func Correlate(eps []Episode) CorrelationStats {
	var cs CorrelationStats
	if len(eps) == 0 {
		return cs
	}
	// Sort by start for sweep queries.
	sorted := append([]Episode(nil), eps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	coHotAt := func(t netsim.Time, self topology.LinkID) int {
		n := 0
		for _, e := range sorted {
			if e.Start > t {
				break
			}
			if e.End > t && e.Link != self {
				n++
			}
		}
		return n
	}
	var sumShort, sumLong float64
	for _, e := range eps {
		mid := e.Start + e.Duration()/2
		co := coHotAt(mid, e.Link)
		if e.Duration() <= 10*time.Second {
			cs.ShortEpisodes++
			sumShort += float64(co)
		} else {
			cs.LongEpisodes++
			sumLong += float64(co)
		}
	}
	if cs.ShortEpisodes > 0 {
		cs.MeanCoHotShort = sumShort / float64(cs.ShortEpisodes)
	}
	if cs.LongEpisodes > 0 {
		cs.MeanCoHotLong = sumLong / float64(cs.LongEpisodes)
	}
	return cs
}

// IncastAudit is the §4.4 preconditions check: the engineering decisions
// that keep incast from manifesting.
type IncastAudit struct {
	// MaxSimultaneousConnections as enforced by the scheduler (paper
	// default: 2).
	MaxSimultaneousConnections int
	// FracFlowsWithinRack / WithinVLAN: the local nature of flows that
	// isolates them from shared bottlenecks.
	FracFlowsWithinRack float64
	FracFlowsWithinVLAN float64
	// MeanConcurrentCongestedLinks: multiplexing headroom indicator.
	MeanConcurrentCongestedLinks float64
	// MaxSyncFanIn is the largest number of distinct senders whose flows
	// reached one destination within a millisecond of each other — the
	// incast trigger, bounded by connection caps and phase pacing.
	MaxSyncFanIn int
}
