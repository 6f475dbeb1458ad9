// Package flows implements the online flow-level analyses of §4.3 that
// the streaming sweep feeds in canonical order: flow reconstruction
// with an inactivity timeout (StreamReassembler), Figure 9's duration
// and rate distributions with their headline numbers (SummaryTracker,
// Summary) and the cluster-, ToR- and server-scope inter-arrival
// distributions of Figure 11 (InterArrivalTracker).
package flows

import (
	"time"

	"dctraffic/internal/topology"
)

// DefaultInactivityTimeout is the paper's flow boundary: when explicit
// begins and ends are unavailable, a five-tuple quiet for this long ends
// the flow.
const DefaultInactivityTimeout = 60 * time.Second

// fiveTuple keys a flow. The protocol is constant (TCP) in this model.
type fiveTuple struct {
	src, dst         topology.ServerID
	srcPort, dstPort uint16
}

// Summary condenses the §4.3 headline numbers for a record set.
type Summary struct {
	NumFlows int
	// FracShorterThan10s / 200s: duration CDF probes (paper: >80% <10 s,
	// <0.1% >200 s).
	FracShorterThan10s float64
	FracLongerThan200s float64
	// BytesInFlowsUnder25s: fraction of bytes carried by flows <= 25 s
	// (paper: more than half).
	BytesInFlowsUnder25s float64
	MedianDurationSec    float64
	MedianRateMbps       float64
	ArrivalRatePerSec    float64
}
