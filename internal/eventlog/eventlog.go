// Package eventlog is the application-level log of the cluster: job and
// phase lifecycle events, read attempts and their outcomes, and evacuation
// notices. The paper merges these logs with the network event logs to
// attribute traffic to applications (§4.2) and to correlate read failures
// with congestion (Figure 8); internal/congestion performs those joins.
package eventlog

import (
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

// Overlaps reports whether the attempt's lifetime intersects [from, to).
func (r ReadAttempt) Overlaps(from, to netsim.Time) bool {
	return r.Start < to && r.End > from
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
type Log struct {
	records    []Record
	reads      []ReadAttempt
	membership []JobMembership
}

// Append adds a lifecycle record.
func (l *Log) Append(r Record) { l.records = append(l.records, r) }

// AppendRead adds a read-attempt record.
func (l *Log) AppendRead(r ReadAttempt) { l.reads = append(l.reads, r) }

// AppendMembership adds a job-membership record.
func (l *Log) AppendMembership(m JobMembership) { l.membership = append(l.membership, m) }

// Records returns all lifecycle records in append order.
func (l *Log) Records() []Record { return l.records }

// Reads returns all read attempts in append order.
func (l *Log) Reads() []ReadAttempt { return l.reads }

// Membership returns all job-membership records.
func (l *Log) Membership() []JobMembership { return l.membership }

// CountType counts lifecycle records of the given type.
func (l *Log) CountType(t EventType) int {
	n := 0
	for _, r := range l.records {
		if r.Type == t {
			n++
		}
	}
	return n
}

// ReadFailureStats summarizes read attempts within [from, to):
// total attempts, failures, and the failure probability.
func (l *Log) ReadFailureStats(from, to netsim.Time) (attempts, failures int, p float64) {
	for _, r := range l.reads {
		if !r.Overlaps(from, to) {
			continue
		}
		attempts++
		if r.Failed {
			failures++
		}
	}
	if attempts > 0 {
		p = float64(failures) / float64(attempts)
	}
	return attempts, failures, p
}
