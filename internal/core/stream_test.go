package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// writeTraceFile spills rr's flow log to a JSONL file in completion
// order — the same nearly-sorted shape cmd/dcsim produces.
func writeTraceFile(t *testing.T, rr *RunResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rr.Records()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// streamDigest analyzes the trace file through a FileSource (spilling
// and merging when chunk is small) and digests the full report.
func streamDigest(t *testing.T, path string, chunk int, rr *RunResult, opts ...AnalyzeOption) string {
	t.Helper()
	src, err := trace.OpenFile(path, trace.FileOptions{SortChunk: chunk, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := AnalyzeSource(context.Background(), src, append([]AnalyzeOption{WithRun(rr)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return reportDigest(t, rep)
}

// TestAnalyzeStreamMatchesInMemory is the acceptance gate of the
// streaming redesign: a trace streamed from disk through the external
// sort must produce a report bit-identical to the in-memory path, for
// every combination of seed, GOMAXPROCS and sort-chunk size (512 forces
// multi-chunk spill-and-merge; 0 keeps the trace in one chunk).
func TestAnalyzeStreamMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("two shortened simulations + a matrix of analyses")
	}
	for _, seed := range []uint64{1, 7} {
		cfg := SmallRun()
		cfg.Duration = 20 * time.Minute
		cfg.DrainTime = 10 * time.Minute
		cfg.Seed = seed
		rr, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := writeTraceFile(t, rr)
		want := reportDigest(t, mustAnalyze(t, rr))

		prev := runtime.GOMAXPROCS(0)
		for _, gmp := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(gmp)
			for _, chunk := range []int{512, 0} {
				if got := streamDigest(t, path, chunk, rr); got != want {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("seed %d: GOMAXPROCS=%d chunk=%d stream digest %s != in-memory %s",
						seed, gmp, chunk, got, want)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestAnalyzeStreamReassemblyMatches covers the stateful windowed
// reassembler: flow merging across the inactivity horizon must not
// depend on whether records arrive from memory or from spill-merged
// chunks.
func TestAnalyzeStreamReassemblyMatches(t *testing.T) {
	rr, _ := smallRun(t)
	path := writeTraceFile(t, rr)
	want := reportDigest(t, mustAnalyze(t, rr, WithInactivityTimeout(60*time.Second)))
	got := streamDigest(t, path, 1024, rr, WithInactivityTimeout(60*time.Second))
	if got != want {
		t.Fatalf("reassembly stream digest %s != in-memory %s", got, want)
	}
}

// TestAnalyzeTraceOnlyPathMatches pins the cmd/dcanalyze -trace mode:
// with only a topology and duration (no RunResult), the file source and
// the slice source must agree bit for bit on the record-only figures.
func TestAnalyzeTraceOnlyPathMatches(t *testing.T) {
	rr, _ := smallRun(t)
	path := writeTraceFile(t, rr)
	opts := []AnalyzeOption{WithTopology(rr.Top), WithDuration(rr.Config.Duration)}
	memRep, err := AnalyzeSource(context.Background(), rr.Source(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenFile(path, trace.FileOptions{SortChunk: 777, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fileRep, err := AnalyzeSource(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(t, fileRep), reportDigest(t, memRep); got != want {
		t.Fatalf("trace-only file digest %s != slice digest %s", got, want)
	}
	if fileRep.Fig9.Summary.NumFlows == 0 {
		t.Fatal("trace-only analysis produced no flows")
	}
	if len(fileRep.Fig5.Episodes) != 0 || fileRep.Fig12.NumTMs != 0 {
		t.Fatal("trace-only analysis should leave run-gated figures empty")
	}
}

// TestAnalyzeSourceValidation nails the error contract of the new
// entry point: a source without a topology or duration cannot be
// analyzed.
func TestAnalyzeSourceValidation(t *testing.T) {
	src := trace.NewSliceSource(nil)
	if _, err := AnalyzeSource(context.Background(), src); err == nil {
		t.Fatal("AnalyzeSource without topology/duration: want error")
	}
	rr, _ := smallRun(t)
	if _, err := AnalyzeSource(context.Background(), rr.Source(), WithTopology(rr.Top)); err == nil {
		t.Fatal("AnalyzeSource without duration: want error")
	}
}

// Each malformed record — an endpoint outside the topology's hosts, an
// end before its start, negative bytes — makes AnalyzeSource return an
// error naming the record and the field, instead of panicking deep in
// a figure accumulator or being analyzed silently.
func TestAnalyzeSourceRejectsMalformedRecords(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	sec := netsim.Time(time.Second)
	good := trace.FlowRecord{ID: 1, Src: 0, Dst: 1, Start: sec, End: 2 * sec, Bytes: 1000}
	analyze := func(bad trace.FlowRecord) error {
		src := trace.NewSliceSource([]trace.FlowRecord{good, bad})
		_, err := AnalyzeSource(context.Background(), src, WithTopology(top), WithDuration(time.Minute))
		return err
	}
	if err := analyze(trace.FlowRecord{ID: 2, Src: 2, Dst: 3, Start: 3 * sec, End: 4 * sec, Bytes: 5}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	hosts := top.NumHosts()
	for _, c := range []struct {
		name string
		bad  trace.FlowRecord
		want string
	}{
		{"src past the hosts", trace.FlowRecord{ID: 7, Src: topology.ServerID(hosts), Dst: 1, Start: 3 * sec, End: 4 * sec}, "record 7: src"},
		{"negative src", trace.FlowRecord{ID: 7, Src: -1, Dst: 1, Start: 3 * sec, End: 4 * sec}, "record 7: src"},
		{"dst past the hosts", trace.FlowRecord{ID: 7, Src: 0, Dst: 500, Start: 3 * sec, End: 4 * sec}, "record 7: dst"},
		{"negative dst", trace.FlowRecord{ID: 7, Src: 0, Dst: -7, Start: 3 * sec, End: 4 * sec}, "record 7: dst"},
		{"end before start", trace.FlowRecord{ID: 7, Src: 0, Dst: 1, Start: 4 * sec, End: 3 * sec}, "record 7: end"},
		{"negative bytes", trace.FlowRecord{ID: 7, Src: 0, Dst: 1, Start: 3 * sec, End: 4 * sec, Bytes: -1000000}, "record 7: negative bytes"},
	} {
		err := analyze(c.bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// Figure 9's summary on flows whose answers can be counted by hand: 60
// instantaneous flows of 500 B, 30 flows of 1 000 B over 2 s and 10 of
// 1 MB over 300 s, starting 100 ms apart inside a 10 s trace. Durations
// count per flow and per byte, rates skip the instantaneous flows, and
// the arrival rate counts starts inside the duration.
func TestFig9SummaryOnHandBuiltFlows(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	var recs []trace.FlowRecord
	for i := 0; i < 100; i++ {
		start := netsim.Time(i) * netsim.Time(100*time.Millisecond)
		r := trace.FlowRecord{ID: netsim.FlowID(i), Src: 0, Dst: 1, SrcPort: uint16(i), Start: start, End: start, Bytes: 500}
		switch {
		case i >= 90:
			r.End, r.Bytes = start+netsim.Time(300*time.Second), 1_000_000
		case i >= 60:
			r.End, r.Bytes = start+netsim.Time(2*time.Second), 1000
		}
		recs = append(recs, r)
	}
	rep, err := AnalyzeSource(context.Background(), trace.NewSliceSource(recs),
		WithTopology(top), WithDuration(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Fig9.Summary
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if s.NumFlows != 100 {
		t.Errorf("NumFlows = %d, want 100", s.NumFlows)
	}
	near("FracShorterThan10s", s.FracShorterThan10s, 0.9)
	near("FracLongerThan200s", s.FracLongerThan200s, 0.1)
	near("BytesInFlowsUnder25s", s.BytesInFlowsUnder25s, 60_000.0/10_060_000)
	near("MedianDurationSec", s.MedianDurationSec, 0)
	near("MedianRateMbps", s.MedianRateMbps, 1000*8/2/1e6) // 40 rated flows, 30 at 4 kbit/s
	near("ArrivalRatePerSec", s.ArrivalRatePerSec, 10)
	near("Fig11.ArrivalPerSec", rep.Fig11.ArrivalPerSec, 10)
}
