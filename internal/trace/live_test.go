package trace

import (
	"errors"
	"io"
	"sort"
	"testing"

	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/stats"
)

// liveRec builds a minimal record; canonical order is (Start, ID).
func liveRec(id int64, start, end netsim.Time) FlowRecord {
	return FlowRecord{ID: netsim.FlowID(id), Start: start, End: end, Bytes: 1}
}

// batchSource returns an instrumented LiveSource whose step runs
// batches[i] on its i-th call and reports done on the call after the
// last batch, plus the count of step calls so far.
func batchSource(batches ...func(l *LiveSource)) (*LiveSource, *obs.Registry, *int) {
	calls := new(int)
	var l *LiveSource
	l = NewLiveSource(func() (bool, error) {
		*calls++
		if *calls > len(batches) {
			return true, nil
		}
		batches[*calls-1](l)
		return false, nil
	})
	reg := obs.NewRegistry()
	l.Instrument(reg)
	return l, reg, calls
}

// drainLive collects everything until EOF, failing on any other error.
func drainLive(t *testing.T, l *LiveSource) []FlowRecord {
	t.Helper()
	var out []FlowRecord
	for {
		rec, err := l.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, rec)
	}
}

// TestLiveSourceAdversarialOrder drives the reorder buffer with the
// worst completion order the simulator can produce: a long-lived
// elephant flow that starts first and ends last pins the watermark at
// its Start while dozens of later-starting flows complete (in reverse
// start order, for spite), including simultaneous starts that must
// tie-break by ID.
func TestLiveSourceAdversarialOrder(t *testing.T) {
	const elephantStart = netsim.Time(10)
	var bufferedAtBatch2 float64
	var reg *obs.Registry
	l, reg, calls := batchSource(
		func(l *LiveSource) {
			// Mice complete first, in reverse start order; ties at Start 500.
			for i := 20; i > 0; i-- {
				l.Emit(liveRec(int64(100+i), netsim.Time(1000+10*i), netsim.Time(2000-10*netsim.Time(i))))
			}
			l.Emit(liveRec(31, 500, 1500))
			l.Emit(liveRec(30, 500, 1600)) // same Start, lower ID, emitted later
			// Watermark moves but stays pinned at the elephant's Start:
			// nothing with Start >= 10 may be released while the
			// elephant is active.
			l.Advance(elephantStart)
		},
		func(l *LiveSource) {
			bufferedAtBatch2 = reg.Snapshot().Value("trace.live.buffered")
			// The elephant finally completes; the watermark jumps past
			// every buffered Start.
			l.Emit(liveRec(1, elephantStart, 5000))
			l.Advance(5001)
		},
	)

	got := drainLive(t, l)
	if bufferedAtBatch2 != 22 {
		t.Fatalf("buffered %v before the second batch, want 22 (watermark pinned by elephant)", bufferedAtBatch2)
	}
	if len(got) != 23 {
		t.Fatalf("drained %d records, want 23", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := &got[i-1], &got[i]
		if !recordLess(a, b) {
			t.Fatalf("record %d out of canonical order: (%v,%d) then (%v,%d)",
				i, a.Start, a.ID, b.Start, b.ID)
		}
	}
	if got[0].ID != 1 {
		t.Fatalf("first record ID %d, want the elephant (1)", got[0].ID)
	}
	if got[1].ID != 30 || got[2].ID != 31 {
		t.Fatalf("simultaneous starts must tie-break by ID: got %d then %d, want 30 then 31",
			got[1].ID, got[2].ID)
	}
	snap := reg.Snapshot()
	if peak := snap.Value("trace.live.buffered_peak"); peak != 23 {
		t.Fatalf("peak buffered %v, want 23", peak)
	}
	if rel := snap.Value("trace.live.released_total"); rel != 23 {
		t.Fatalf("released %v, want 23", rel)
	}

	// A second EOF read must not step the finished producer again.
	if _, err := l.Next(); err != io.EOF {
		t.Fatalf("Next after drain: %v, want io.EOF", err)
	}
	if *calls != 3 {
		t.Fatalf("step called %d times, want 3 (two batches and the end)", *calls)
	}
}

// TestLiveSourceLazyStep pins the pull contract: step runs only when no
// record is releasable, and never after it reported done.
func TestLiveSourceLazyStep(t *testing.T) {
	l, _, calls := batchSource(func(l *LiveSource) {
		l.Emit(liveRec(3, 3, 9))
		l.Emit(liveRec(1, 1, 9))
		l.Emit(liveRec(2, 2, 9))
		l.Emit(liveRec(4, 20, 25)) // above the watermark: waits for the end
		l.Advance(10)
	})
	for want := int64(1); want <= 3; want++ {
		rec, err := l.Next()
		if err != nil || int64(rec.ID) != want {
			t.Fatalf("Next: record %d, %v; want record %d", rec.ID, err, want)
		}
		if *calls != 1 {
			t.Fatalf("step called %d times with record %d releasable, want 1", *calls, want)
		}
	}
	if rec, err := l.Next(); err != nil || rec.ID != 4 {
		t.Fatalf("Next after the last batch: record %d, %v; want record 4", rec.ID, err)
	}
	if _, err := l.Next(); err != io.EOF {
		t.Fatalf("Next after drain: %v, want io.EOF", err)
	}
	if *calls != 2 {
		t.Fatalf("step called %d times, want 2 (one batch and the end)", *calls)
	}
}

// TestLiveSourceProducerError checks a failed producer preempts parked
// records: the consumer must see the error, not a truncated stream that
// looks complete, and keeps seeing it without stepping the failed
// producer again.
func TestLiveSourceProducerError(t *testing.T) {
	wantErr := errors.New("producer failed")
	calls := 0
	var l *LiveSource
	l = NewLiveSource(func() (bool, error) {
		calls++
		if calls == 1 {
			l.Emit(liveRec(1, 0, 5))
			l.Emit(liveRec(2, 50, 60)) // parked above the watermark
			l.Advance(10)
			return false, nil
		}
		return false, wantErr
	})
	reg := obs.NewRegistry()
	l.Instrument(reg)
	if rec, err := l.Next(); err != nil || rec.ID != 1 {
		t.Fatalf("Next: record %d, %v; want record 1", rec.ID, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Next(); err != wantErr {
			t.Fatalf("Next after a failed step: %v, want %v (parked records must not mask the failure)", err, wantErr)
		}
	}
	if calls != 2 {
		t.Fatalf("step called %d times, want 2 (a failed producer is not stepped again)", calls)
	}
	if b := reg.Snapshot().Value("trace.live.buffered"); b != 0 {
		t.Fatalf("buffered %v after a failed step, want 0 (parked records dropped)", b)
	}
}

// TestLiveSourceEmitBelowWatermarkPanics pins the soundness check: a
// record below the watermark means the producer's frontier lied, and
// silently reordering would corrupt every downstream figure.
func TestLiveSourceEmitBelowWatermarkPanics(t *testing.T) {
	l := NewLiveSource(nil)
	l.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Emit below watermark: want panic")
		}
	}()
	l.Emit(liveRec(1, 50, 60))
}

// checkLiveOrder drives a LiveSource with n random records whose starts
// fall in [0, horizon), many of them simultaneous, under the simulator's
// watermark rule: each step moves the clock t forward by a random
// amount, emits every record that has ended by t in random order, and
// advances the watermark to min(t+1, the earliest Start of a flow
// still active at t), sometimes also to a stale lower value. Next must
// return every record once, in the order of a sort.Slice copy.
func checkLiveOrder(t *testing.T, seed uint64, n int, horizon netsim.Time) {
	t.Helper()
	rng := stats.NewRNG(seed)
	recs := make([]FlowRecord, n)
	for i, id := range rng.Perm(n) {
		start := netsim.Time(rng.Int64N(int64(horizon)))
		var dur netsim.Time
		switch rng.IntN(3) {
		case 0: // instantaneous
		case 1: // short
			dur = netsim.Time(rng.Int64N(8))
		default: // long-lived: pins the watermark
			dur = netsim.Time(rng.Int64N(int64(horizon)))
		}
		recs[i] = liveRec(int64(id), start, start+dur)
	}
	want := append([]FlowRecord(nil), recs...)
	sort.Slice(want, func(a, b int) bool { return recordLess(&want[a], &want[b]) })

	// Completion order, as the producer emits: by End.
	pending := append([]FlowRecord(nil), recs...)
	sort.Slice(pending, func(a, b int) bool { return pending[a].End < pending[b].End })
	clock := netsim.Time(-1)
	var l *LiveSource
	l = NewLiveSource(func() (bool, error) {
		clock += 1 + netsim.Time(rng.Int64N(4))
		k := 0
		for k < len(pending) && pending[k].End <= clock {
			k++
		}
		batch := pending[:k]
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		for _, rec := range batch {
			l.Emit(rec)
		}
		pending = pending[k:]
		w := clock + 1
		for i := range pending {
			if pending[i].Start <= clock {
				w = min(w, pending[i].Start)
			}
		}
		l.Advance(w)
		if rng.IntN(4) == 0 {
			l.Advance(w - 1 - netsim.Time(rng.Int64N(3)))
		}
		return len(pending) == 0, nil
	})
	got := drainLive(t, l)
	if len(got) != len(want) {
		t.Fatalf("seed %d: released %d records, want %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: record %d is %+v, want %+v", seed, i, got[i], want[i])
		}
	}
}

// TestLiveSourceReleaseOrder is the seeded property: random records and
// watermark schedules, from a handful of records to a few thousand.
func TestLiveSourceReleaseOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		n := int(seed * seed)
		checkLiveOrder(t, seed, n, netsim.Time(1+n/int(1+seed%5)))
	}
}

// FuzzLiveSourceOrder searches the same property over seeds, record
// counts and start horizons.
func FuzzLiveSourceOrder(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(1))
	f.Add(uint64(2), uint16(50), uint16(3))
	f.Add(uint64(3), uint16(400), uint16(400))
	f.Fuzz(func(t *testing.T, seed uint64, n, horizon uint16) {
		checkLiveOrder(t, seed, int(n%1024), netsim.Time(1+horizon%2048))
	})
}
