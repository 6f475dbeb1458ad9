package trace

import (
	"fmt"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// randomRecords builds a record set with the shapes that stress the
// index: long flows spanning many windows, instantaneous records, flows
// touching external hosts, and duplicate start times.
func randomRecords(t *testing.T, top *topology.Topology, n int, horizon netsim.Time) []FlowRecord {
	t.Helper()
	rng := stats.NewRNG(42).Fork("view_test")
	hosts := top.NumHosts()
	out := make([]FlowRecord, n)
	for i := range out {
		start := netsim.Time(rng.Float64() * float64(horizon))
		var dur netsim.Time
		switch rng.IntN(4) {
		case 0: // instantaneous
		case 1: // long-lived
			dur = netsim.Time(rng.Float64() * float64(horizon) / 4)
		default: // short
			dur = netsim.Time(rng.Float64() * float64(10*time.Second))
		}
		out[i] = FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(rng.IntN(hosts)),
			Dst:   topology.ServerID(rng.IntN(hosts)),
			Start: start,
			End:   start + dur,
			Bytes: int64(rng.IntN(1 << 20)),
		}
	}
	return out
}

func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// feedWindow appends records (canonically sorted) and seals up to t.
func feedWindow(t *testing.T, w *WindowView, recs []FlowRecord, seal netsim.Time) {
	t.Helper()
	for _, r := range canonicalCopy(recs) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Seal(seal)
}

// overlapScan is the brute-force reference for WindowView.Slice: every
// record of recs (canonically sorted) that starts before to and either
// ends after from or is instantaneous with its start in [from, to).
func overlapScan(recs []FlowRecord, from, to netsim.Time) []FlowRecord {
	var out []FlowRecord
	for _, r := range recs {
		if r.Start < to && (r.End > from || (r.End == r.Start && r.Start >= from)) {
			out = append(out, r)
		}
	}
	return out
}

// sameRecords fails t unless got and want hold the same records in the
// same order.
func sameRecords(t *testing.T, label string, got, want []FlowRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %d, want %d (order or membership mismatch)", label, i, got[i].ID, want[i].ID)
		}
	}
}

// With every record delivered, Slice must agree with the brute-force
// scan — membership and canonical order — for every window, including
// windows past the data, empty ones and one that starts at a lone
// instantaneous record.
func TestViewOverlappingMatchesNaiveFilter(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	// The last record is instantaneous and starts after every other
	// record has ended: a window starting at it finds it only through
	// overlapRange's clamp to the first Start >= from.
	lone := FlowRecord{ID: 1 << 40, Start: 2 * horizon, End: 2 * horizon}
	recs := canonicalCopy(append(randomRecords(t, top, 5000, horizon), lone))
	wv := NewWindowView()
	feedWindow(t, wv, recs, 2*horizon+netsim.Time(time.Minute))

	windows := [][2]netsim.Time{
		{0, horizon},
		{0, netsim.Time(time.Second)},
		{horizon / 2, horizon/2 + netsim.Time(10*time.Second)},
		{horizon - netsim.Time(time.Second), horizon},
		{horizon, horizon + netsim.Time(time.Minute)}, // beyond the data
		{horizon / 3, horizon / 3},                    // empty window
		{lone.Start, lone.Start + netsim.Time(time.Minute)},
	}
	rng := stats.NewRNG(7).Fork("windows")
	for i := 0; i < 50; i++ {
		from := netsim.Time(rng.Float64() * float64(horizon))
		windows = append(windows, [2]netsim.Time{from, from + netsim.Time(rng.Float64()*float64(time.Minute))})
	}
	for _, w := range windows {
		sameRecords(t, fmt.Sprintf("window [%v, %v)", w[0], w[1]), wv.Slice(w[0], w[1]), overlapScan(recs, w[0], w[1]))
	}
}

// The view driven the way the analysis sweep drives it — deliver up to
// a boundary, seal, slice the window closing there, retire below the
// next window's start — must slice every window exactly as the
// brute-force scan over the whole record set does, record for record,
// across compactions.
func TestWindowViewMatchesRecordView(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	recs := canonicalCopy(randomRecords(t, top, 20000, horizon))
	step := netsim.Time(20 * time.Second)
	span := 3 * step
	wv := NewWindowView()
	next := 0
	for to := step; to <= horizon; to += step {
		for ; next < len(recs) && recs[next].Start < to; next++ {
			if err := wv.Append(recs[next]); err != nil {
				t.Fatal(err)
			}
		}
		wv.Seal(to)
		from := max(0, to-span)
		sameRecords(t, fmt.Sprintf("window [%v, %v)", from, to), wv.Slice(from, to), overlapScan(recs, from, to))
		wv.Retire(max(0, to+step-span))
	}
	if wv.Retired() == 0 {
		t.Fatal("no compaction ran: the slices never read a compacted buffer")
	}
}

// Retirement must actually reclaim memory, and slices over retired or
// undelivered spans must panic — the enforcement half of the
// WindowView contract.
func TestWindowViewRetirementContract(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	recs := randomRecords(t, top, 5000, horizon)
	wv := NewWindowView()
	feedWindow(t, wv, recs, horizon)

	before := wv.Buffered()
	mid := horizon / 2
	wv.Retire(mid)
	wv.Compact()
	if wv.Buffered() >= before {
		t.Fatalf("compaction did not shrink buffer: %d -> %d", before, wv.Buffered())
	}
	if wv.Retired() == 0 {
		t.Fatal("no records reported retired")
	}

	// Windows at or above the watermark still match the full scan.
	sameRecords(t, "post-retirement window", wv.Slice(mid, horizon), overlapScan(canonicalCopy(recs), mid, horizon))

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("slice below retirement watermark", func() { wv.Slice(mid-1, horizon) })
	mustPanic("slice beyond delivery watermark", func() { wv.Slice(mid, horizon+1) })
}

// Appending out of canonical order must be rejected.
func TestWindowViewRejectsOutOfOrder(t *testing.T) {
	wv := NewWindowView()
	a := FlowRecord{ID: 2, Start: netsim.Time(100), End: netsim.Time(200)}
	b := FlowRecord{ID: 1, Start: netsim.Time(50), End: netsim.Time(60)}
	if err := wv.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := wv.Append(b); err == nil {
		t.Fatal("earlier Start accepted after later one")
	}
	dup := FlowRecord{ID: 2, Start: netsim.Time(100), End: netsim.Time(300)}
	if err := wv.Append(dup); err == nil {
		t.Fatal("duplicate (Start, ID) accepted")
	}
}

// Long-lived records must survive compaction as long as any future
// window can reach them, and instantaneous records exactly at the
// watermark stay visible.
func TestWindowViewCompactKeepsReachable(t *testing.T) {
	wv := NewWindowView()
	long := FlowRecord{ID: 1, Start: 0, End: netsim.Time(time.Hour)}
	inst := FlowRecord{ID: 2, Start: netsim.Time(time.Minute), End: netsim.Time(time.Minute)}
	gone := FlowRecord{ID: 3, Start: netsim.Time(2 * time.Second), End: netsim.Time(30 * time.Second)}
	for _, r := range []FlowRecord{long, gone, inst} {
		if err := wv.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wv.Seal(netsim.Time(2 * time.Hour))
	wv.Retire(netsim.Time(time.Minute))
	wv.Compact()
	if wv.Buffered() != 2 {
		t.Fatalf("buffered %d after compaction, want 2 (long + boundary-instantaneous)", wv.Buffered())
	}
	got := wv.Slice(netsim.Time(time.Minute), netsim.Time(2*time.Minute))
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("post-compaction slice wrong: %+v", got)
	}
}
