package netsim

import (
	"fmt"

	"dctraffic/internal/topology"
)

// FlowID identifies a flow within one simulation run.
type FlowID int64

// FlowKind attributes a flow to the application activity that produced it,
// mirroring the network↔application join of §4.2.
type FlowKind uint8

// Flow kinds, named after the paper's traffic sources.
const (
	KindOther       FlowKind = iota
	KindShuffle              // partition → aggregate data pull (reduce traffic)
	KindExtractRead          // extract vertex reading a non-local block
	KindReplicate            // block-store replica creation
	KindEvacuate             // automated server evacuation
	KindIngest               // external host uploading new data
	KindEgress               // external host pulling results
	KindControl              // job control chatter
)

// String returns the kind name.
func (k FlowKind) String() string {
	switch k {
	case KindShuffle:
		return "shuffle"
	case KindExtractRead:
		return "extract-read"
	case KindReplicate:
		return "replicate"
	case KindEvacuate:
		return "evacuate"
	case KindIngest:
		return "ingest"
	case KindEgress:
		return "egress"
	case KindControl:
		return "control"
	}
	return "other"
}

// FlowTag carries application attribution for a flow: which job, phase and
// vertex caused it. Zero values mean "not attributable".
type FlowTag struct {
	Job    int
	Phase  int
	Vertex int
	Kind   FlowKind
}

// Flow is one fluid transfer between two hosts. Flows are created by
// Network.StartFlow and owned by the network until completion.
type Flow struct {
	ID    FlowID
	Src   topology.ServerID
	Dst   topology.ServerID
	Bytes int64 // total transfer size
	Tag   FlowTag

	// SrcPort and DstPort complete the five-tuple; the simulator assigns
	// an ephemeral source port, so distinct transfers are distinct flows
	// in the §4 sense.
	SrcPort, DstPort uint16

	Start Time
	End   Time // set when done; zero while active

	// Canceled marks a flow aborted before completing (its job was
	// killed); Transferred reports what actually moved.
	Canceled bool

	path      []topology.LinkID // aliases pathBuf; at most MaxPathLen links
	remaining float64           // bytes left
	rate      float64           // bytes/sec under the current allocation
	done      func(*Flow)
	idx       int // index in Network.active, -1 once finished

	// pathBuf backs path so flow creation does not allocate a path slice.
	pathBuf [topology.MaxPathLen]topology.LinkID

	// linkIdx[i] is the flow's position in Network.linkFlows[path[i]],
	// kept current by swap-removal so retiring a flow is O(len(path)).
	linkIdx [topology.MaxPathLen]int32

	// mark and frozen are scratch for the incremental max-min solver:
	// mark stamps the component generation that last visited the flow,
	// frozen flags flows already fixed at their bottleneck share.
	mark   uint64
	frozen bool
}

// Active reports whether the flow is still transferring.
func (f *Flow) Active() bool { return f.idx >= 0 }

// Rate returns the current allocated rate in bits per second.
func (f *Flow) Rate() float64 { return f.rate * 8 }

// Remaining returns the bytes not yet transferred.
func (f *Flow) Remaining() float64 { return f.remaining }

// Transferred returns the bytes actually moved so far (equals Bytes for a
// completed flow, less for canceled or active ones).
func (f *Flow) Transferred() float64 { return float64(f.Bytes) - f.remaining }

// Duration returns the flow's lifetime; for active flows it is the time
// since start at the supplied now.
func (f *Flow) Duration(now Time) Time {
	if f.Active() {
		return now - f.Start
	}
	return f.End - f.Start
}

// Path returns the directed links the flow traverses (nil for loopback).
func (f *Flow) Path() []topology.LinkID { return f.path }

// String renders a compact description for logs and tests.
func (f *Flow) String() string {
	return fmt.Sprintf("flow %d %d->%d %dB kind=%s", f.ID, f.Src, f.Dst, f.Bytes, f.Tag.Kind)
}
