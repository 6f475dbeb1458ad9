package eventlog

import (
	"testing"
	"time"
)

func TestAppendAndFilter(t *testing.T) {
	var l Log
	l.Append(Record{Time: 1 * time.Second, Type: JobSubmitted, Job: 1, Name: "j1"})
	l.Append(Record{Time: 2 * time.Second, Type: JobStarted, Job: 1})
	l.Append(Record{Time: 5 * time.Second, Type: JobCompleted, Job: 1})
	l.Append(Record{Time: 7 * time.Second, Type: JobSubmitted, Job: 2, Name: "j2"})
	l.Append(Record{Type: EventType(99)})
	if got := l.CountType(JobSubmitted); got != 2 {
		t.Fatalf("CountType = %d, want 2", got)
	}
	if got := l.CountType(JobKilled); got != 0 {
		t.Fatalf("CountType(JobKilled) = %d, want 0", got)
	}
	if got := l.CountType(EventType(99)); got != 1 {
		t.Fatalf("CountType(99) = %d, want 1", got)
	}
}

// TestReadSink checks that a log with a read sink hands it every read
// attempt appended afterwards and keeps none of them.
func TestReadSink(t *testing.T) {
	var l Log
	l.AppendRead(ReadAttempt{Job: 1, Flow: 4})
	var sunk []ReadAttempt
	l.SetReadSink(func(r ReadAttempt) { sunk = append(sunk, r) })
	l.AppendRead(ReadAttempt{Job: 2, Flow: -1})
	l.AppendRead(ReadAttempt{Job: 3, Flow: 7, Failed: true})
	if len(l.Reads()) != 1 || l.Reads()[0].Job != 1 {
		t.Fatalf("log kept %+v, want only the read appended before the sink", l.Reads())
	}
	if len(sunk) != 2 || sunk[0].Job != 2 || !sunk[1].Failed {
		t.Fatalf("sink got %+v", sunk)
	}
}

func TestEventTypeStrings(t *testing.T) {
	types := []EventType{JobSubmitted, JobStarted, JobCompleted, JobKilled,
		PhaseStarted, PhaseCompleted, VertexStarted, VertexCompleted,
		EvacuationStarted, EvacuationCompleted}
	seen := map[string]bool{}
	for _, e := range types {
		s := e.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad event string %q", s)
		}
		seen[s] = true
	}
	if EventType(99).String() != "unknown" {
		t.Fatal("unknown type should say so")
	}
}
