package trace

import (
	"fmt"
	"io"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
)

// LiveSource turns a completion-order record stream into a canonical
// (Start, ID)-order Source while the producer is still running — the
// seam that fuses the simulate and analyze phases (see core.RunAnalyze).
//
// Records finalize at flow *end* but canonical order is flow *start*, so
// emitted records park in a reorder min-heap until a watermark proves no
// earlier record can still arrive. The producer owns the watermark:
// after advancing the simulation to time t, every future record has
// Start > t (events at or before t have run), and every still-active
// flow f can only yield a record with Start = f.Start, so
//
//	watermark = min(t + 1, earliest Start among still-active flows)
//
// is a sound release frontier: records with Start < watermark can never
// be preceded and leave the heap in order. The watermark is monotone
// (active flows at a later t either were already active or started
// after the earlier t), so the records released under successive
// watermarks concatenate into one strictly increasing (Start, ID)
// sequence — the Source contract — with simultaneous starts tie-broken
// by ID inside the heap. Heap occupancy is bounded by the records
// overlapping the oldest active flow, the same O(window) regime the
// streaming analyzer established.
//
// The consumer drives the producer, on one goroutine. Next pops the
// heap while its top record is below the watermark; when none is, it
// calls step, which runs one more producer batch: the batch Emits the
// records it completes and Advances the watermark. Once step reports
// done, the rest of the heap drains in canonical order and Next reports
// io.EOF. A step error drops the heap, and Next reports that error from
// then on without stepping again: an incomplete trace must fail the
// analysis, not truncate it silently.
type LiveSource struct {
	step      func() (done bool, err error)
	buf       recHeap // above the watermark, min-heap by (Start, ID)
	watermark netsim.Time
	done      bool
	err       error

	peakBuffered int
	released     int64
	stepTime     time.Duration // wall clock inside step
	lagHist      *obs.Histogram
}

// NewLiveSource returns a live reorder buffer whose Next pulls records
// by calling step (see LiveSource).
func NewLiveSource(step func() (done bool, err error)) *LiveSource {
	return &LiveSource{step: step}
}

// Instrument registers the seam's series: trace.live.buffered
// (current/peak reorder-heap occupancy), trace.live.released_total,
// trace.live.step_seconds (wall clock spent inside step, so the
// producer's time can be told apart from the consumer's), and
// trace.live.watermark_lag_seconds (seconds between a record's Start
// and the watermark that released it). Safe with a nil registry.
func (l *LiveSource) Instrument(r *obs.Registry) {
	r.SampledGauge("trace.live.buffered", func() float64 { return float64(len(l.buf)) })
	r.SampledGauge("trace.live.buffered_peak", func() float64 { return float64(l.peakBuffered) })
	r.SampledCounter("trace.live.released_total", func() float64 { return float64(l.released) })
	r.SampledCounter("trace.live.step_seconds", func() float64 { return l.stepTime.Seconds() })
	l.lagHist = r.Histogram("trace.live.watermark_lag_seconds", obs.Pow2Bounds(1.0/1024, 24))
}

// Emit parks one completion-order record in the reorder heap. Emitting
// a record below the watermark is a producer bug — the watermark
// claimed no such record could arrive — and panics.
func (l *LiveSource) Emit(rec FlowRecord) {
	if rec.Start < l.watermark {
		panic(fmt.Sprintf("trace: LiveSource.Emit record start %v below watermark %v (flow %d)",
			rec.Start, l.watermark, rec.ID))
	}
	l.buf.push(rec)
	l.peakBuffered = max(l.peakBuffered, len(l.buf))
}

// Advance raises the watermark to w; a w that is not ahead is ignored.
func (l *LiveSource) Advance(w netsim.Time) { l.watermark = max(l.watermark, w) }

// Next implements Source: it returns the heap's top record once the
// watermark (or the producer's end) releases it, stepping the producer
// until one does.
func (l *LiveSource) Next() (FlowRecord, error) {
	for l.err == nil {
		if len(l.buf) > 0 && l.buf[0].Start < l.watermark {
			l.lagHist.Observe((l.watermark - l.buf[0].Start).Seconds())
			return l.pop(), nil
		}
		if l.done {
			if len(l.buf) == 0 {
				return FlowRecord{}, io.EOF
			}
			return l.pop(), nil
		}
		sw := obs.NewStopwatch()
		l.done, l.err = l.step()
		l.stepTime += sw.Elapsed()
	}
	l.buf = nil
	return FlowRecord{}, l.err
}

func (l *LiveSource) pop() FlowRecord {
	l.released++
	return l.buf.pop()
}

// recHeap is a binary min-heap of records in canonical (Start, ID)
// order. It sifts records in place rather than through container/heap,
// whose Push and Pop box each record into an interface. (Start, ID) is
// a total order, so any correct heap pops the same sequence.
type recHeap []FlowRecord

// push adds rec, moving the parents it beats down one level each.
func (h *recHeap) push(rec FlowRecord) {
	s := append(*h, rec)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !recordLess(&rec, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = rec
	*h = s
}

// pop removes and returns the least record; the heap must not be
// empty. The last record refills the root's hole from the top down.
func (h *recHeap) pop() FlowRecord {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && recordLess(&s[c+1], &s[c]) {
			c++
		}
		if !recordLess(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
