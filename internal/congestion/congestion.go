// Package congestion implements the hot-spot analyses of §4.2: detecting
// high-utilization episodes on links (Figure 5), their duration
// distribution (Figure 6), the rates of flows that overlap congestion
// versus all flows (Figure 7), the correlation between high utilization
// and application read failures (Figure 8), and the §4.4 incast
// preconditions audit.
package congestion

import (
	"math"
	"sort"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
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
// ordered by link then start time. It is an EpisodeTracker run to Close.
func Detect(st *netsim.LinkStats, top *topology.Topology, threshold float64, links []topology.LinkID) []Episode {
	t := NewEpisodeTracker(st, top, threshold, links)
	t.Close()
	return t.Episodes()
}

// openEnd is the End of a run the tracker has not seen close yet. It
// lies past every record's End, so overlap tests and attribution clips
// treat the run as reaching past any record the tracker may join.
const openEnd = netsim.Time(math.MaxInt64)

// EpisodeTracker is Detect run online: it scans each link's utilization
// bins as they become final and keeps its EpisodeIndex current. Each
// link's episode list ends with its open run, if it has one, stored
// with End = math.MaxInt64 until a cold bin closes it.
//
// A record whose End lies in a scanned bin gets the same overlap and
// attribution answers from the index now as from the final one: every
// episode starting before its End is already indexed, closed episodes
// are final, and an open run reaches past the End either way.
//
// Bin indices are absolute: the series a tracker reads may have dropped
// the bins below some index (netsim.LinkStats.DropBelow), as long as it
// drops only bins the tracker has scanned.
type EpisodeTracker struct {
	bin       netsim.Time
	threshold float64
	bins      binSeries
	links     []linkScan
	idx       *EpisodeIndex
	final     int // every link is scanned below this bin
}

// binSeries returns a link's kept bins and the absolute index of the
// first of them.
type binSeries func(topology.LinkID) (first int, bytes []float64)

// linkScan is one tracked link's scan state.
type linkScan struct {
	id     topology.LinkID
	capBin float64 // capacity in bytes per bin
	pos    int     // next bin to scan
	open   bool    // the link's last indexed episode is its open run
}

// NewEpisodeTracker tracks the given links (nil means the topology's
// inter-switch links; untracked links are skipped) at threshold (<=0
// means DefaultThreshold). Nothing is scanned until Advance or Close.
func NewEpisodeTracker(st *netsim.LinkStats, top *topology.Topology, threshold float64, links []topology.LinkID) *EpisodeTracker {
	if links == nil {
		links = top.InterSwitchLinks()
	}
	bin := st.BinSize()
	var scans []linkScan
	for _, id := range links {
		if st.Tracked(id) {
			scans = append(scans, linkScan{id: id, capBin: top.Link(id).CapacityBps / 8 * bin.Seconds()})
		}
	}
	return newEpisodeTracker(bin, threshold, scans, func(id topology.LinkID) (int, []float64) { return st.First(), st.Bytes(id) })
}

func newEpisodeTracker(bin netsim.Time, threshold float64, links []linkScan, bins binSeries) *EpisodeTracker {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &EpisodeTracker{
		bin:       bin,
		threshold: threshold,
		bins:      bins,
		links:     links,
		idx:       &EpisodeIndex{byLink: make(map[topology.LinkID][]Episode)},
	}
}

// Advance scans every bin below final, which must no longer change. A
// final at or below the tracker's frontier is a no-op.
func (t *EpisodeTracker) Advance(final int) {
	if final <= t.final {
		return
	}
	for i := range t.links {
		t.scan(&t.links[i], final)
	}
	t.final = final
}

// Close scans the rest of every link's recorded bins and closes an open
// run at the link's recorded bin count, as a scan of the finished
// counters does. Call it once the bins stop changing; afterwards every
// bin counts as final.
func (t *EpisodeTracker) Close() {
	for i := range t.links {
		l := &t.links[i]
		first, bytes := t.bins(l.id)
		t.scan(l, first+len(bytes)+1)
	}
	t.final = math.MaxInt
}

// Final reports the frontier: every bin below it has been scanned.
func (t *EpisodeTracker) Final() int { return t.final }

// Index returns the tracker's episode index, current to the frontier.
func (t *EpisodeTracker) Index() *EpisodeIndex { return t.idx }

// Episodes returns the indexed episodes ordered by link, in the order
// the links were given, then start time. After Close it equals Detect;
// before, each link's open run ends at math.MaxInt64.
func (t *EpisodeTracker) Episodes() []Episode {
	var out []Episode
	for _, l := range t.links {
		out = append(out, t.idx.byLink[l.id]...)
	}
	return out
}

// scan classifies l's bins from its scan position up to (not including)
// upto. Bins past the link's recorded ones are cold: they can only ever
// be recorded as zeros.
func (t *EpisodeTracker) scan(l *linkScan, upto int) {
	first, bytes := t.bins(l.id)
	for ; l.pos < upto; l.pos++ {
		i := l.pos
		hot := i-first < len(bytes) && l.capBin > 0 && bytes[i-first]/l.capBin >= t.threshold
		if hot && !l.open {
			t.idx.byLink[l.id] = append(t.idx.byLink[l.id], Episode{Link: l.id, Start: netsim.Time(i) * t.bin, End: openEnd})
			l.open = true
		}
		if !hot && l.open {
			es := t.idx.byLink[l.id]
			es[len(es)-1].End = netsim.Time(i) * t.bin
			l.open = false
		}
	}
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

// EpisodeIndex answers interval-overlap queries per link. One built by
// NewEpisodeIndex is immutable; an EpisodeTracker's grows as it scans,
// and must be read on the tracker's goroutine.
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
	return overlapsAny(idx.byLink[l], from, to)
}

// overlapsAny reports whether an episode of es, sorted by start,
// intersects [from, to).
func overlapsAny(es []Episode, from, to netsim.Time) bool {
	// First episode with End > from.
	i := sort.Search(len(es), func(i int) bool { return es[i].End > from })
	return i < len(es) && es[i].Start < to
}

// Link returns link l's episodes sorted by start time. Read-only.
func (idx *EpisodeIndex) Link(l topology.LinkID) []Episode { return idx.byLink[l] }

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
