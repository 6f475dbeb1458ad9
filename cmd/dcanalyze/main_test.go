package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dctraffic"
)

// TestHeapWatchSamplesAsRecordsGrow: once the buffered-record peak stops
// growing, 10% more delivered records still take a heap sample, so the
// whole-run accumulators' growth reaches -max-heap-mb and -mem-profile.
func TestHeapWatchSamplesAsRecordsGrow(t *testing.T) {
	h := &heapWatch{}
	h.observe(dctraffic.StreamProgress{Records: 1000, PeakBuffered: 50})
	first := h.peakHeap
	live := make([]byte, 16<<20)
	h.observe(dctraffic.StreamProgress{Records: 1050, PeakBuffered: 50})
	if h.sampledRecords != 1000 {
		t.Fatalf("5%% more records took a sample (at %d records)", h.sampledRecords)
	}
	h.observe(dctraffic.StreamProgress{Records: 1200, PeakBuffered: 50})
	runtime.KeepAlive(live)
	if h.sampledRecords != 1200 {
		t.Fatalf("20%% more records at a flat buffered peak took no sample (last at %d records)", h.sampledRecords)
	}
	if h.peakHeap <= first {
		t.Fatalf("peak heap %d B after a 16 MiB live allocation, first sample %d B", h.peakHeap, first)
	}
}

// writeTrace writes records as a JSONL trace file and returns its path.
func writeTrace(t *testing.T, recs []dctraffic.FlowRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dctraffic.WriteTrace(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// A malformed record in a -trace file is an error naming the record,
// not a panic.
func TestAnalyzeTraceRejectsMalformedRecord(t *testing.T) {
	path := writeTrace(t, []dctraffic.FlowRecord{
		{ID: 1, Src: 0, Dst: 1, Start: time.Second, End: 2 * time.Second, Bytes: 1000},
		{ID: 2, Src: 0, Dst: -7, Start: 3 * time.Second, End: 4 * time.Second, Bytes: 1000},
	})
	_, err := analyzeTrace(path, runConfigFor(false, 8, 10, time.Hour, 1), nil)
	if err == nil || !strings.Contains(err.Error(), "record 2: dst -7") {
		t.Fatalf("error %v, want one naming record 2's dst", err)
	}
}

// -trace analyzes against the run configuration the flags select, so a
// PaperRun trace — here one record from external host 1 520 — is
// accepted with -paper and rejected on the 8×10 default.
func TestAnalyzeTraceHonoursPaper(t *testing.T) {
	path := writeTrace(t, []dctraffic.FlowRecord{
		{ID: 1, Src: 1520, Dst: 3, Start: time.Second, End: 2 * time.Second, Bytes: 1000},
	})
	rep, err := analyzeTrace(path, runConfigFor(true, 8, 10, 2*time.Hour, 1), nil)
	if err != nil {
		t.Fatalf("-paper: %v", err)
	}
	if rep.Fig9.Summary.NumFlows != 1 {
		t.Fatalf("-paper: %d flows analyzed, want 1", rep.Fig9.Summary.NumFlows)
	}
	if _, err := analyzeTrace(path, runConfigFor(false, 8, 10, 2*time.Hour, 1), nil); err == nil || !strings.Contains(err.Error(), "record 1: src 1520") {
		t.Fatalf("8x10 default: error %v, want one naming record 1's src", err)
	}
}

// -duration applies with -paper too, and its zero default keeps each
// configuration's own window.
func TestRunConfigForDuration(t *testing.T) {
	for _, c := range []struct {
		paper    bool
		duration time.Duration
		want     time.Duration
	}{
		{true, 30 * time.Minute, 30 * time.Minute},
		{true, 0, 24 * time.Hour},
		{false, 30 * time.Minute, 30 * time.Minute},
		{false, 0, 2 * time.Hour},
	} {
		cfg := runConfigFor(c.paper, 8, 10, c.duration, 1)
		if cfg.Duration != c.want {
			t.Errorf("runConfigFor(paper=%v, duration=%v): duration %v, want %v", c.paper, c.duration, cfg.Duration, c.want)
		}
	}
}
