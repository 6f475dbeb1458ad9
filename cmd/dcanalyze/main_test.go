package main

import (
	"runtime"
	"testing"

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
