// Package netsim is a discrete-event, flow-level network simulator.
//
// It models the cluster fabric as directed links with capacities
// (internal/topology) and active transfers as fluid flows that share link
// bandwidth max-min fairly. This is the right granularity for reproducing
// the paper: every reported quantity — byte counts between server pairs,
// flow durations and rates, link utilization — is a fluid-level quantity.
// Packet-level artifacts the paper explicitly did not observe (incast
// collapse) are modeled by their preconditions, not by simulating TCP.
//
// A simulation runs on one goroutine and is deterministic: all
// behaviour is a pure function of the scheduled events and the seed of
// whatever workload drives it. Parallelism belongs across independent
// runs (internal/fleet), not inside one.
package netsim

import (
	"time"
)

// Time is simulation time, expressed as an offset from the start of the
// run. Using time.Duration gives nanosecond resolution over ±292 years,
// comfortably covering multi-day runs.
type Time = time.Duration

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break for FIFO ordering of simultaneous events
	fn  func()
}

// eventQueue is a min-heap over (at, seq), stored by value: Schedule
// appends into the backing array instead of allocating a node per event,
// so the steady-state cost of scheduling is a couple of sift swaps.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	q.siftUp(len(*q) - 1)
}

// pop removes and returns the minimum event. The vacated slot is zeroed
// so the queue does not retain the callback closure.
func (q *eventQueue) pop() event {
	old := *q
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = event{}
	*q = old[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return e
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// Sim is the discrete-event core: a clock and an ordered event queue.
// Embed or compose it; the zero value is ready to use.
type Sim struct {
	now       Time
	queue     eventQueue
	nextSeq   uint64
	processed uint64
	stopped   bool
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// EventsProcessed reports the cumulative number of events executed.
func (s *Sim) EventsProcessed() uint64 { return s.processed }

// Schedule runs fn at the given absolute simulation time. Events scheduled
// in the past run at the current time (immediately, in order). Events at
// equal times run in scheduling order.
func (s *Sim) Schedule(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.queue.push(event{at: at, seq: s.nextSeq, fn: fn})
	s.nextSeq++
}

// After runs fn after the given delay.
func (s *Sim) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

// Run processes events until the queue is empty or the clock would pass
// until; it then sets the clock to until. Events exactly at until run.
func (s *Sim) Run(until Time) {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].at > until {
			break
		}
		e := s.queue.pop()
		s.now = e.at
		s.processed++
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// RunAll processes every queued event regardless of time. Useful in tests.
func (s *Sim) RunAll() {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		e := s.queue.pop()
		s.now = e.at
		s.processed++
		e.fn()
	}
}

// Stop makes the current Run/RunAll return after the executing event.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
