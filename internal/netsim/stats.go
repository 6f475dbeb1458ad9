package netsim

import (
	"dctraffic/internal/topology"
)

// LinkStats accumulates per-link byte counts in fixed time bins for a
// tracked subset of links. These are the simulator's equivalent of SNMP
// interface byte counters: congestion analysis derives utilization from
// them, and tomography uses them as its only input.
type LinkStats struct {
	binSize Time
	tracked []bool      // indexed by LinkID
	bytes   [][]float64 // bytes per bin, indexed by LinkID; nil if untracked
}

func newLinkStats(binSize Time, numLinks int, links []topology.LinkID) *LinkStats {
	s := &LinkStats{
		binSize: binSize,
		tracked: make([]bool, numLinks),
		bytes:   make([][]float64, numLinks),
	}
	for _, l := range links {
		s.tracked[l] = true
	}
	return s
}

// BinSize reports the bin width.
func (s *LinkStats) BinSize() Time { return s.binSize }

// Tracked reports whether a link is being recorded.
func (s *LinkStats) Tracked(id topology.LinkID) bool {
	return int(id) < len(s.tracked) && s.tracked[id]
}

// TrackedLinks returns the ids of all recorded links in id order.
func (s *LinkStats) TrackedLinks() []topology.LinkID {
	var out []topology.LinkID
	for id, ok := range s.tracked {
		if ok {
			out = append(out, topology.LinkID(id))
		}
	}
	return out
}

// record accrues rate bytes/sec over [from, to) into the link's bins.
func (s *LinkStats) record(id topology.LinkID, from, to Time, rateB float64) {
	if !s.tracked[id] {
		return
	}
	bins := s.bytes[id]
	for t := from; t < to; {
		bin := int(t / s.binSize)
		binEnd := Time(bin+1) * s.binSize
		if binEnd > to {
			binEnd = to
		}
		for len(bins) <= bin {
			bins = append(bins, 0)
		}
		bins[bin] += rateB * (binEnd - t).Seconds()
		t = binEnd
	}
	s.bytes[id] = bins
}

// Bytes returns the per-bin byte counts of a link (shared slice; do not
// modify). Untracked links return nil.
func (s *LinkStats) Bytes(id topology.LinkID) []float64 {
	if int(id) >= len(s.bytes) {
		return nil
	}
	return s.bytes[id]
}

// Bins reports the number of bins recorded so far across all links.
func (s *LinkStats) Bins() int {
	n := 0
	for _, b := range s.bytes {
		if len(b) > n {
			n = len(b)
		}
	}
	return n
}

// Utilization converts a link's byte bins to utilization in [0, ~1]
// against the given capacity (bits/sec). The result has exactly bins
// entries, zero-padded beyond recorded data.
func (s *LinkStats) Utilization(id topology.LinkID, capacityBps float64, bins int) []float64 {
	out := make([]float64, bins)
	capB := capacityBps / 8 * s.binSize.Seconds()
	if capB <= 0 {
		return out
	}
	for i, b := range s.Bytes(id) {
		if i >= bins {
			break
		}
		out[i] = b / capB
	}
	return out
}
