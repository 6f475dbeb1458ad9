// Package eventlog is the application-level log of the cluster: job and
// phase lifecycle events, read attempts and their outcomes, and evacuation
// notices. The paper merges these logs with the network event logs to
// attribute traffic to applications (§4.2) and to correlate read failures
// with congestion (Figure 8); internal/congestion performs those joins.
package eventlog

import (
	"math"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

// EventType classifies a lifecycle record.
type EventType uint8

// Lifecycle event types.
const (
	JobSubmitted EventType = iota
	JobStarted
	JobCompleted
	JobKilled
	PhaseStarted
	PhaseCompleted
	VertexStarted
	VertexCompleted
	EvacuationStarted
	EvacuationCompleted
)

// String returns the event-type name.
func (e EventType) String() string {
	switch e {
	case JobSubmitted:
		return "job-submitted"
	case JobStarted:
		return "job-started"
	case JobCompleted:
		return "job-completed"
	case JobKilled:
		return "job-killed"
	case PhaseStarted:
		return "phase-started"
	case PhaseCompleted:
		return "phase-completed"
	case VertexStarted:
		return "vertex-started"
	case VertexCompleted:
		return "vertex-completed"
	case EvacuationStarted:
		return "evacuation-started"
	case EvacuationCompleted:
		return "evacuation-completed"
	}
	return "unknown"
}

// Record is one lifecycle event.
type Record struct {
	Time   netsim.Time
	Type   EventType
	Job    int
	Phase  int
	Vertex int
	Server topology.ServerID
	Name   string // job name for submit records; free-form detail otherwise
}

// ReadAttempt records one attempt by a vertex to read input data — the
// unit over which read failures are reported. Local reads have Flow == -1.
type ReadAttempt struct {
	Job    int
	Phase  int
	Vertex int
	Src    topology.ServerID // data source
	Dst    topology.ServerID // reading vertex's server
	Flow   netsim.FlowID
	Start  netsim.Time
	End    netsim.Time
	Failed bool
}

// JobMembership records which servers ran vertices of which job and when;
// it is the metadata the job-augmented tomography prior consumes (§5.3).
// Phase records the vertex's role in the workflow, enabling the
// role-aware prior the paper names as future work (traffic flows from a
// phase's racks to the next phase's racks, not symmetrically).
type JobMembership struct {
	Job    int
	Phase  int
	Server topology.ServerID
	Start  netsim.Time
	End    netsim.Time
}

// Log accumulates application events for one simulation run. The zero
// value is ready to use. It is not safe for concurrent use; the simulator
// is single-threaded.
//
// Lifecycle records are counted by type, not kept: nothing reads them
// but their counts. A log with a read sink (SetReadSink) keeps no read
// attempts either.
type Log struct {
	counts     [math.MaxUint8 + 1]int // lifecycle records by EventType
	reads      []ReadAttempt          // nil with a read sink
	readSink   func(ReadAttempt)
	membership []JobMembership
}

// Append counts a lifecycle record.
func (l *Log) Append(r Record) { l.counts[r.Type]++ }

// AppendRead adds a read-attempt record, or hands it to the read sink.
func (l *Log) AppendRead(r ReadAttempt) {
	if l.readSink != nil {
		l.readSink(r)
		return
	}
	l.reads = append(l.reads, r)
}

// SetReadSink hands each read attempt appended from now on to fn instead
// of keeping it, so Reads holds only those appended before; a nil fn
// keeps them again. core's analysis sweep tallies a RunAnalyze run's
// Figure 8 this way. fn runs inside the event loop and must not block.
func (l *Log) SetReadSink(fn func(ReadAttempt)) { l.readSink = fn }

// AppendMembership adds a job-membership record.
func (l *Log) AppendMembership(m JobMembership) { l.membership = append(l.membership, m) }

// Reads returns the kept read attempts in append order: nil for a log
// whose reads went to a sink.
func (l *Log) Reads() []ReadAttempt { return l.reads }

// Membership returns all job-membership records.
func (l *Log) Membership() []JobMembership { return l.membership }

// CountType counts lifecycle records of the given type.
func (l *Log) CountType(t EventType) int { return l.counts[t] }
