package tm

import (
	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// spread distributes a flow record's bytes across time bins assuming a
// uniform rate over its lifetime (the standard flow-record approximation),
// invoking fn with the byte share of each overlapped bin.
func spread(r trace.FlowRecord, bin netsim.Time, from, to netsim.Time, fn func(binIdx int, bytes float64)) {
	if r.End < r.Start {
		return
	}
	if r.End == r.Start {
		// Instantaneous record: all bytes land in the start bin.
		if r.Start >= from && r.Start < to {
			fn(int((r.Start-from)/bin), float64(r.Bytes))
		}
		return
	}
	start, end := r.Start, r.End
	if start < from {
		start = from
	}
	if end > to {
		end = to
	}
	if start >= end {
		return
	}
	rate := float64(r.Bytes) / (r.End - r.Start).Seconds()
	for t := start; t < end; {
		idx := int((t - from) / bin)
		binEnd := from + netsim.Time(idx+1)*bin
		if binEnd > end {
			binEnd = end
		}
		fn(idx, rate*(binEnd-t).Seconds())
		t = binEnd
	}
}

// ServerMatrix aggregates flow records into one host-level TM over
// [from, to). Endpoints are all hosts (cluster servers first, then
// external hosts), matching Figure 2's layout where external uploaders
// and result-pullers occupy the far rows/columns.
func ServerMatrix(records []trace.FlowRecord, numHosts int, from, to netsim.Time) *Matrix {
	m := NewMatrix(numHosts)
	bin := to - from
	if bin <= 0 {
		panic("tm: empty window")
	}
	for _, r := range records {
		if int(r.Src) >= numHosts || int(r.Dst) >= numHosts {
			continue
		}
		spread(r, bin, from, to, func(_ int, b float64) {
			m.Add(int(r.Src), int(r.Dst), b)
		})
	}
	return m
}

// SeriesBinWindow returns the [from, to) span of bin i in a series of
// the given bin size clamped to horizon: the analysis sweep's Figure 10
// and tomography windows.
func SeriesBinWindow(i int, bin, horizon netsim.Time) (from, to netsim.Time) {
	from = netsim.Time(i) * bin
	to = from + bin
	if to > horizon {
		to = horizon
	}
	return from, to
}

// TorMatrix aggregates flow records into a ToR-to-ToR TM over [from, to).
// Per the paper, the diagonal is zero: only traffic crossing racks is
// included, and flows touching external hosts are excluded (they do not
// transit ToR-to-ToR).
func TorMatrix(records []trace.FlowRecord, top *topology.Topology, from, to netsim.Time) *Matrix {
	m := NewMatrix(top.NumRacks())
	bin := to - from
	if bin <= 0 {
		panic("tm: empty window")
	}
	for _, r := range records {
		rs, rd := top.Rack(r.Src), top.Rack(r.Dst)
		if rs < 0 || rd < 0 || rs == rd {
			continue
		}
		spread(r, bin, from, to, func(_ int, b float64) {
			m.Add(int(rs), int(rd), b)
		})
	}
	return m
}

// TorSeries aggregates ToR-to-ToR TMs at fixed bins covering [0, horizon).
func TorSeries(records []trace.FlowRecord, top *topology.Topology, bin, horizon netsim.Time) []*Matrix {
	if bin <= 0 || horizon <= 0 {
		panic("tm: need positive bin and horizon")
	}
	nBins := int((horizon + bin - 1) / bin)
	out := make([]*Matrix, nBins)
	for i := range out {
		out[i] = NewMatrix(top.NumRacks())
	}
	for _, r := range records {
		rs, rd := top.Rack(r.Src), top.Rack(r.Dst)
		if rs < 0 || rd < 0 || rs == rd {
			continue
		}
		spread(r, bin, 0, horizon, func(idx int, b float64) {
			if idx >= 0 && idx < nBins {
				out[idx].Add(int(rs), int(rd), b)
			}
		})
	}
	return out
}
