package trace

import (
	"fmt"
	"sort"

	"dctraffic/internal/netsim"
)

// WindowView is the analysis sweep's record buffer: it holds only the
// records that windows not yet retired can still reach, and slices a
// window out of that buffer in O(log n + |window|). The sweep Appends
// records in canonical (Start, ID) order as the source delivers them,
// Seals the delivery watermark up to each window boundary, computes
// each closing figure window from its own Slice copy, and Retires
// everything older than the earliest window still open — which is what
// makes whole-trace analysis O(max window span), not O(trace).
//
// The contract is enforced, not advisory: slicing a window that
// reaches below the retirement watermark or past the delivery
// watermark panics, so a scheduling bug that would silently read
// missing records fails loudly instead.
type WindowView struct {
	recs   []FlowRecord
	maxEnd []netsim.Time // maxEnd[i] = max End of recs[:i+1], parallel to recs

	low  netsim.Time // retirement watermark: slices must have from >= low
	high netsim.Time // delivery watermark: slices must have to <= high

	any       bool // order-validation state
	lastStart netsim.Time
	lastID    netsim.FlowID

	delivered   int64
	retired     int64
	peak        int
	compactBase int // buffer length right after the last compaction
}

// NewWindowView returns an empty view with both watermarks at zero.
func NewWindowView() *WindowView {
	return &WindowView{compactBase: 1024}
}

// Append adds the next record from the source. Records must arrive in
// strictly ascending (Start, ID) order — a corrupt or unsorted source
// is reported as an error rather than silently mis-indexed.
func (w *WindowView) Append(r FlowRecord) error {
	if w.any {
		if r.Start < w.lastStart || (r.Start == w.lastStart && r.ID <= w.lastID) {
			return fmt.Errorf("trace: out-of-order record %d at %v after %d at %v",
				r.ID, r.Start, w.lastID, w.lastStart)
		}
	}
	w.any = true
	w.lastStart, w.lastID = r.Start, r.ID
	me := r.End
	if n := len(w.maxEnd); n > 0 && w.maxEnd[n-1] > me {
		me = w.maxEnd[n-1]
	}
	w.recs = append(w.recs, r)
	w.maxEnd = append(w.maxEnd, me)
	w.delivered++
	if len(w.recs) > w.peak {
		w.peak = len(w.recs)
	}
	return nil
}

// Seal advances the delivery watermark to t: the caller asserts every
// record with Start < t has been Appended. Slices with to <= t become
// legal.
func (w *WindowView) Seal(t netsim.Time) {
	if t > w.high {
		w.high = t
	}
}

// overlapRange computes the buffer index range that can overlap
// [from, to): hi is the first record with Start >= to; lo starts at the
// first index whose running max-End exceeds from, clamped down to the
// first Start >= from so instantaneous records at the boundary are not
// skipped.
func (w *WindowView) overlapRange(from, to netsim.Time) (lo, hi int) {
	hi = sort.Search(len(w.recs), func(i int) bool { return w.recs[i].Start >= to })
	lo = sort.Search(hi, func(i int) bool { return w.maxEnd[i] > from })
	if s := sort.Search(hi, func(i int) bool { return w.recs[i].Start >= from }); s < lo {
		lo = s
	}
	return lo, hi
}

// checkWindow enforces the retirement contract for a [from, to) window.
func (w *WindowView) checkWindow(from, to netsim.Time) {
	if from < w.low {
		panic(fmt.Sprintf("trace: window [%v, %v) reaches below retirement watermark %v", from, to, w.low))
	}
	if to > w.high {
		panic(fmt.Sprintf("trace: window [%v, %v) beyond delivery watermark %v", from, to, w.high))
	}
}

// overlaps reports whether r is active in [from, to): it starts before
// to and ends after from; an instantaneous record counts in the window
// containing its start. These are exactly the records a
// windowed aggregation (tm.ServerMatrix's byte spreading) draws bytes
// from.
func overlaps(r *FlowRecord, from, to netsim.Time) bool {
	if r.Start >= to {
		return false
	}
	return r.End > from || (r.End == r.Start && r.Start >= from)
}

// Slice returns a fresh copy of the records overlapping [from, to), in
// canonical order. The window must satisfy low <= from and to <= high.
// The copy stays valid after retirement and compaction.
func (w *WindowView) Slice(from, to netsim.Time) []FlowRecord {
	w.checkWindow(from, to)
	lo, hi := w.overlapRange(from, to)
	var out []FlowRecord
	for i := lo; i < hi; i++ {
		if overlaps(&w.recs[i], from, to) {
			out = append(out, w.recs[i])
		}
	}
	return out
}

// Retire raises the retirement watermark: no future window will reach
// below t. Buffer space is reclaimed by an amortized compaction once
// the buffer has grown well past its size at the previous compaction,
// so Retire is O(1) amortized per appended record.
func (w *WindowView) Retire(t netsim.Time) {
	if t <= w.low {
		return
	}
	w.low = t
	if len(w.recs) >= 2*w.compactBase {
		w.Compact()
	}
}

// Compact immediately drops every record no window with from >= the
// retirement watermark can reach, rebuilding the max-End index.
func (w *WindowView) Compact() {
	keep := w.recs[:0]
	for i := range w.recs {
		r := &w.recs[i]
		if r.End > w.low || (r.End == r.Start && r.Start >= w.low) {
			keep = append(keep, *r)
		}
	}
	w.retired += int64(len(w.recs) - len(keep))
	clear(w.recs[len(keep):])
	w.recs = keep
	w.maxEnd = w.maxEnd[:0]
	var me netsim.Time
	for i := range w.recs {
		if w.recs[i].End > me || i == 0 {
			me = w.recs[i].End
		}
		w.maxEnd = append(w.maxEnd, me)
	}
	base := len(w.recs)
	if base < 1024 {
		base = 1024
	}
	w.compactBase = base
}

// Buffered reports the records currently held.
func (w *WindowView) Buffered() int { return len(w.recs) }

// PeakBuffered reports the high-water mark of Buffered.
func (w *WindowView) PeakBuffered() int { return w.peak }

// Delivered reports the total records appended so far.
func (w *WindowView) Delivered() int64 { return w.delivered }

// Retired reports the records dropped by compaction so far.
func (w *WindowView) Retired() int64 { return w.retired }
