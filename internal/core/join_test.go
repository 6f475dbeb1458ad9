package core

import (
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"dctraffic/internal/congestion"
	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// The chunk join the sweep's per-record join replaced, kept as its
// oracle: records joined a chunk at a time against the finished episode
// index, each chunk's Figure 7 CDFs merged into stream CDFs and its
// attribution sums merged part by part, and Figure 8 joined through a
// map of every record by flow id.

// flowOverlapsCongestion reports whether any link of the flow's path had
// an overlapping episode.
func flowOverlapsCongestion(r trace.FlowRecord, idx *congestion.EpisodeIndex, top *topology.Topology) bool {
	for _, l := range top.PathK(r.Src, r.Dst, uint64(r.ID)) {
		if idx.Overlaps(l, r.Start, r.End) {
			return true
		}
	}
	return false
}

// overlapRateCDFsIndexed builds Figure 7 over one record chunk.
func overlapRateCDFsIndexed(records []trace.FlowRecord, idx *congestion.EpisodeIndex, top *topology.Topology) (overlap, all *stats.CDF) {
	overlap, all = &stats.CDF{}, &stats.CDF{}
	for _, r := range records {
		rate := r.AvgRateBps()
		if rate <= 0 {
			continue
		}
		all.Add(rate / 1e6)
		if flowOverlapsCongestion(r, idx, top) {
			overlap.Add(rate / 1e6)
		}
	}
	return overlap, all
}

// attributeIndexed computes one record chunk's unnormalized attribution
// sums.
func attributeIndexed(records []trace.FlowRecord, idx *congestion.EpisodeIndex, top *topology.Topology) congestion.Attribution {
	a := congestion.Attribution{BytesOnCongested: make(map[netsim.FlowKind]float64)}
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

// readFailureImpact joins the read attempts with the episodes through a
// map of every record by flow id.
func readFailureImpact(log *eventlog.Log, records []trace.FlowRecord, eps []congestion.Episode, top *topology.Topology, dayLen netsim.Time, numDays int) []congestion.DayImpact {
	idx := congestion.NewEpisodeIndex(eps)
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
				congested = flowOverlapsCongestion(r, idx, top)
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
	out := make([]congestion.DayImpact, numDays)
	for d, b := range buckets {
		di := congestion.DayImpact{Day: d, CongestedReads: b.congested, ClearReads: b.clear}
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

// chunkJoin runs the oracle over records in chunks of size: Figure 7's
// stream CDFs (cap cdfCap) and the merged attribution.
func chunkJoin(records []trace.FlowRecord, idx *congestion.EpisodeIndex, top *topology.Topology, size, cdfCap int) (overlap, all *stats.StreamCDF, attr congestion.Attribution) {
	overlap, all = stats.NewStreamCDF(cdfCap), stats.NewStreamCDF(cdfCap)
	var parts []congestion.Attribution
	for lo := 0; lo < len(records); lo += size {
		chunk := records[lo:min(lo+size, len(records))]
		o, a := overlapRateCDFsIndexed(chunk, idx, top)
		overlap.MergeCDF(o)
		all.MergeCDF(a)
		parts = append(parts, attributeIndexed(chunk, idx, top))
	}
	return overlap, all, congestion.MergeAttribution(parts)
}

func canonicalRunRecords(t *testing.T, rr *RunResult) []trace.FlowRecord {
	t.Helper()
	var out []trace.FlowRecord
	src := rr.Source()
	for {
		r, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
}

func sameAttribution(t *testing.T, what string, got, want congestion.Attribution) {
	t.Helper()
	same := func(a, b map[netsim.FlowKind]float64) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range b {
			if w, ok := a[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				return false
			}
		}
		return true
	}
	if !same(got.BytesOnCongested, want.BytesOnCongested) || !same(got.Share, want.Share) ||
		math.Float64bits(got.TotalBytes) != math.Float64bits(want.TotalBytes) {
		t.Fatalf("%s: attribution %+v, chunk oracle %+v", what, got, want)
	}
}

// TestRecordJoinMatchesChunkOracle pins the per-record congestion join
// to the chunk join it replaced, bit for bit, on a real run's records:
// the report's Figure 7, attribution and Figure 8 against the oracle at
// the sweep's part size, and the join itself at a part size and CDF cap
// small enough to seal many parts and sketch both CDFs.
func TestRecordJoinMatchesChunkOracle(t *testing.T) {
	rr, rep := smallRun(t)
	recs := canonicalRunRecords(t, rr)
	eps := congestion.Detect(rr.Net.Stats(), rr.Top, 0, rr.Top.InterSwitchLinks())
	if !reflect.DeepEqual(eps, rep.Fig5.Episodes) || len(eps) == 0 {
		t.Fatalf("report has %d episodes, Detect %d", len(rep.Fig5.Episodes), len(eps))
	}
	idx := congestion.NewEpisodeIndex(eps)

	overlap, all, attr := chunkJoin(recs, idx, rr.Top, recordShardTarget, 0)
	want := Fig7Data{
		OverlapCDF:        overlap.Points(100),
		AllCDF:            all.Points(100),
		MedianOverlapMbps: overlap.Quantile(0.5),
		MedianAllMbps:     all.Quantile(0.5),
	}
	if !reflect.DeepEqual(rep.Fig7, want) {
		t.Fatalf("report Figure 7 %+v, chunk oracle %+v", rep.Fig7, want)
	}
	sameAttribution(t, "report", rep.Attribution, attr)
	periods := max(int(rr.Config.Duration/rep.Fig8.Period), 1)
	days := readFailureImpact(rr.Log, rr.Records(), eps, rr.Top, rep.Fig8.Period, periods)
	if !reflect.DeepEqual(rep.Fig8.Days, days) {
		t.Fatalf("report Figure 8 %+v, record-map oracle %+v", rep.Fig8.Days, days)
	}

	const part, cdfCap = 1000, 3000
	if len(recs) < 4*part {
		t.Fatalf("only %d records: the part check needs several parts", len(recs))
	}
	overlap, all, attr = chunkJoin(recs, idx, rr.Top, part, cdfCap)
	j := congestion.NewRecordJoin(idx, rr.Top, cdfCap)
	for i := range recs {
		j.Join(&recs[i])
		if (i+1)%part == 0 {
			j.SealPart()
		}
	}
	if !j.All.Sketched() || !reflect.DeepEqual(j.All.Points(100), all.Points(100)) ||
		!reflect.DeepEqual(j.Overlap.Points(100), overlap.Points(100)) {
		t.Fatal("record join's Figure 7 CDFs differ from the chunk oracle's")
	}
	sameAttribution(t, "1000-record parts", j.Attribution(), attr)
}

// TestReadTallyMatchesOracle feeds a finished run's read attempts to
// Figure 8's online tally as a fused run does: each arrives when its
// flow ends, in append order, ahead of its flow's join, and the records
// join in delivery order, (Start, ID), well behind. Reads wait, their
// flows join out of their append order, and the tally must equal the
// end-of-run record-map oracle.
func TestReadTallyMatchesOracle(t *testing.T) {
	rr, rep := smallRun(t)
	recs := canonicalRunRecords(t, rr)
	eps := rep.Fig5.Episodes
	period := rep.Fig8.Period
	periods := max(int(rr.Config.Duration/period), 1)
	want := readFailureImpact(rr.Log, rr.Records(), eps, rr.Top, period, periods)

	j := congestion.NewRecordJoin(congestion.NewEpisodeIndex(eps), rr.Top, 0)
	tally := congestion.NewReadTally(j, period, periods)
	const lag = 2 * time.Minute
	next, peak, outOfOrder := 0, 0, 0
	var last netsim.FlowID = -1
	for _, ra := range rr.Log.Reads() {
		for ; next < len(recs) && recs[next].End+lag <= ra.End; next++ {
			j.Join(&recs[next])
		}
		tally.Add(ra)
		peak = max(peak, tally.Waiting())
		if ra.Flow >= 0 {
			if ra.Flow < last {
				outOfOrder++
			}
			last = ra.Flow
		}
	}
	for ; next < len(recs); next++ {
		j.Join(&recs[next])
	}
	if peak == 0 || outOfOrder == 0 {
		t.Fatalf("%d reads waited at the peak, %d arrived out of flow order: the schedule checks nothing", peak, outOfOrder)
	}
	if got := tally.Impact(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, rep.Fig8.Days) {
		t.Fatalf("online tally %+v, record-map oracle %+v, report %+v", got, want, rep.Fig8.Days)
	}
}
