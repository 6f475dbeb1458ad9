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
	if got := l.CountType(JobSubmitted); got != 2 {
		t.Fatalf("CountType = %d, want 2", got)
	}
	if len(l.Records()) != 4 {
		t.Fatalf("Records = %d", len(l.Records()))
	}
}

func TestReadFailureStats(t *testing.T) {
	var l Log
	l.AppendRead(ReadAttempt{Job: 1, Start: 1 * time.Second, End: 2 * time.Second, Failed: false})
	l.AppendRead(ReadAttempt{Job: 1, Start: 3 * time.Second, End: 4 * time.Second, Failed: true})
	l.AppendRead(ReadAttempt{Job: 2, Start: 10 * time.Second, End: 12 * time.Second, Failed: true})
	a, f, p := l.ReadFailureStats(0, 5*time.Second)
	if a != 2 || f != 1 || p != 0.5 {
		t.Fatalf("stats = %d %d %v", a, f, p)
	}
	a, f, p = l.ReadFailureStats(0, 20*time.Second)
	if a != 3 || f != 2 {
		t.Fatalf("full-window stats = %d %d %v", a, f, p)
	}
	a, _, p = l.ReadFailureStats(100*time.Second, 200*time.Second)
	if a != 0 || p != 0 {
		t.Fatalf("empty-window stats = %d %v", a, p)
	}
}

func TestReadOverlaps(t *testing.T) {
	r := ReadAttempt{Start: 2 * time.Second, End: 4 * time.Second}
	cases := []struct {
		from, to time.Duration
		want     bool
	}{
		{0, 1 * time.Second, false},
		{0, 2 * time.Second, false}, // half-open: ends exactly at start
		{0, 3 * time.Second, true},
		{3 * time.Second, 10 * time.Second, true},
		{4 * time.Second, 10 * time.Second, false},
	}
	for _, c := range cases {
		if got := r.Overlaps(c.from, c.to); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
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
