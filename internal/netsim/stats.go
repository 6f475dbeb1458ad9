package netsim

import (
	"dctraffic/internal/topology"
)

// LinkStats accumulates per-link byte counts in fixed time bins for a
// tracked subset of links. These are the simulator's equivalent of SNMP
// interface byte counters: congestion analysis derives utilization from
// them, and tomography uses them as its only input.
//
// A run whose bins have one reader that scans them as they become final
// (core.RunAnalyze's episode tracker) drops the scanned ones
// (DropBelow), so it keeps a few bins per link instead of the whole run.
type LinkStats struct {
	binSize Time
	tracked []bool      // indexed by LinkID
	bytes   [][]float64 // bytes per bin from bin first on, indexed by LinkID; nil if untracked
	first   int         // the bins below it are dropped
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
		i := bin - s.first
		for len(bins) <= i {
			bins = append(bins, 0)
		}
		bins[i] += rateB * (binEnd - t).Seconds()
		t = binEnd
	}
	s.bytes[id] = bins
}

// Bytes returns the per-bin byte counts of a link from bin First() on
// (shared slice; do not modify). Untracked links return nil.
func (s *LinkStats) Bytes(id topology.LinkID) []float64 {
	if int(id) >= len(s.bytes) {
		return nil
	}
	return s.bytes[id]
}

// First reports the first bin still kept: Bytes(id)[0] is bin First().
// It is 0 until DropBelow drops bins.
func (s *LinkStats) First() int { return s.first }

// DropBelow discards every link's bins below bin, which must be final:
// no accrual may land below it again, so bin·BinSize must not lie past
// Network.LastAccrual. Only a reader that has already scanned those bins
// may ask for this; afterwards Bytes starts at bin.
func (s *LinkStats) DropBelow(bin int) {
	k := bin - s.first
	if k <= 0 {
		return
	}
	for id, bins := range s.bytes {
		n := copy(bins, bins[min(k, len(bins)):])
		s.bytes[id] = bins[:n]
	}
	s.first = bin
}

// Bins reports the number of bins recorded so far across all links,
// dropped ones included.
func (s *LinkStats) Bins() int {
	n := 0
	for _, b := range s.bytes {
		if len(b) > n {
			n = len(b)
		}
	}
	return s.first + n
}

// Utilization converts a link's byte bins to utilization in [0, ~1]
// against the given capacity (bits/sec). The result has exactly bins
// entries, zero-padded beyond recorded data and below First().
func (s *LinkStats) Utilization(id topology.LinkID, capacityBps float64, bins int) []float64 {
	out := make([]float64, bins)
	capB := capacityBps / 8 * s.binSize.Seconds()
	if capB <= 0 {
		return out
	}
	for i, b := range s.Bytes(id) {
		if s.first+i >= bins {
			break
		}
		out[s.first+i] = b / capB
	}
	return out
}
