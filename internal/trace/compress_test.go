package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

func sampleRecords(n int) []FlowRecord {
	out := make([]FlowRecord, n)
	for i := range out {
		out[i] = FlowRecord{
			ID:      netsim.FlowID(i),
			Src:     topology.ServerID(i % 80),
			Dst:     topology.ServerID((i * 7) % 80),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 443,
			Start:   netsim.Time(i) * time.Millisecond,
			End:     netsim.Time(i)*time.Millisecond + time.Second,
			Bytes:   int64(1000 + i*37),
			Tag:     netsim.FlowTag{Job: i % 20, Kind: netsim.KindShuffle},
		}
	}
	return out
}

// WriteJSONLGz streams records as gzip-compressed JSON lines through
// the compression meter's encoder and returns the uncompressed and
// compressed byte counts: the .gz fixture writer.
func WriteJSONLGz(w io.Writer, records []FlowRecord) (raw, compressed int64, err error) {
	enc := newGzEncoder(w)
	for i := range records {
		if err := enc.encode(&records[i]); err != nil {
			return 0, 0, err
		}
	}
	return enc.close()
}

// MeasureCompression compresses the records to a byte sink and reports
// the achieved ratio (raw/compressed): the batch oracle the collector's
// streamed measurement must match bit for bit.
func MeasureCompression(records []FlowRecord) (ratio float64, err error) {
	raw, comp, err := WriteJSONLGz(io.Discard, records)
	if err != nil {
		return 0, err
	}
	return compressionRatio(raw, comp), nil
}

// TestGzRoundTrip: a .gz trace written by WriteJSONLGz reads back
// through OpenFile, the path dcanalyze -trace takes.
func TestGzRoundTrip(t *testing.T) {
	recs := sampleRecords(500)
	var buf bytes.Buffer
	raw, comp, err := WriteJSONLGz(&buf, recs)
	if err != nil {
		t.Fatal(err)
	}
	if raw <= 0 || comp <= 0 || int64(buf.Len()) != comp {
		t.Fatalf("raw=%d comp=%d buf=%d", raw, comp, buf.Len())
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	back := drain(t, src)
	if !reflect.DeepEqual(back, canonicalCopy(recs)) {
		t.Fatalf("got %d records back, want %d in canonical order", len(back), len(recs))
	}
}

func TestCompressionRatioAtLeast3x(t *testing.T) {
	// The paper: "Compression reduces the network bandwidth used by the
	// measurement infrastructure by at least 3x." Structured socket logs
	// compress well; verify on realistic records.
	ratio, err := MeasureCompression(sampleRecords(5000))
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 3 {
		t.Fatalf("compression ratio %.2f, paper reports at least 3x", ratio)
	}
}

func TestMeasureCompressionEmpty(t *testing.T) {
	ratio, err := MeasureCompression(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 0 {
		t.Fatalf("empty ratio = %v", ratio)
	}
}

func TestReadJSONLGzBadInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err := OpenFile(path, FileOptions{}); err == nil {
		src.Close()
		t.Fatal("expected gzip header error")
	}
}

// endFlow feeds rec to the collector as the flow the simulator would
// have completed.
func endFlow(c *Collector, rec FlowRecord) {
	c.FlowEnded(&netsim.Flow{
		ID: rec.ID, Src: rec.Src, Dst: rec.Dst, Bytes: rec.Bytes, Tag: rec.Tag,
		SrcPort: rec.SrcPort, DstPort: rec.DstPort, Start: rec.Start, End: rec.End,
	})
}

// TestMeasuredCompressionMatchesBatch pins the streamed ratio bitwise
// to the batch oracle over the first CompressionSample records, at the
// batch and sample edges, whether the meter starts before the records
// arrive (fused runs), after all of them (two-phase analysis) or in
// between. A second call must return the same value.
func TestMeasuredCompressionMatchesBatch(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	recs := sampleRecords(CompressionSample + 1)
	sizes := []int{0, 1, compressBatch - 1, compressBatch, compressBatch + 1, CompressionSample, CompressionSample + 1}
	for _, n := range sizes {
		want, err := MeasureCompression(recs[:min(n, CompressionSample)])
		if err != nil {
			t.Fatal(err)
		}
		// Every start point on the small sizes; on the sample-sized ones
		// the split start covers both feeds in one (deflate is slow).
		starts := []int{0, n / 2, n}
		if n >= CompressionSample {
			starts = []int{n / 2}
		}
		for _, at := range starts {
			c := NewCollector(top, Config{})
			for i := 0; i < n; i++ {
				if i == at {
					c.StartCompressionMeter()
				}
				endFlow(c, recs[i])
			}
			if at == n {
				c.StartCompressionMeter()
			}
			for call := 1; call <= 2; call++ {
				got, err := c.MeasuredCompression()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d start=%d call %d: streamed ratio %v != batch %v", n, at, call, got, want)
				}
			}
		}
	}
}

// TestMeasuredCompressionWithoutStart: a collector whose meter was never
// started measures on demand, with the same result.
func TestMeasuredCompressionWithoutStart(t *testing.T) {
	c := NewCollector(topology.MustNew(topology.SmallConfig()), Config{})
	recs := sampleRecords(3 * compressBatch)
	for _, r := range recs {
		endFlow(c, r)
	}
	want, err := MeasureCompression(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.MeasuredCompression(); err != nil || got != want {
		t.Fatalf("MeasuredCompression = %v, %v; want %v", got, err, want)
	}
}

// TestStopCompressionMeter: stopping joins the meter goroutine, and a
// later MeasuredCompression still matches the oracle, whether the stop
// voided the measurement or found it finished.
func TestStopCompressionMeter(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCollector(topology.MustNew(topology.SmallConfig()), Config{})
	c.StopCompressionMeter() // no meter: a no-op
	c.StartCompressionMeter()
	recs := sampleRecords(5 * compressBatch)
	for _, r := range recs {
		endFlow(c, r)
	}
	c.StopCompressionMeter()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after stop, want <= %d", n, base)
	}
	want, err := MeasureCompression(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.MeasuredCompression(); err != nil || got != want {
		t.Fatalf("after stop: MeasuredCompression = %v, %v; want %v", got, err, want)
	}
	// Stopping a finished meter keeps its result.
	c.StopCompressionMeter()
	if got, err := c.MeasuredCompression(); err != nil || got != want {
		t.Fatalf("after stopping a finished meter: %v, %v; want %v", got, err, want)
	}
}

// TestMeasuredCompressionConcurrentCallers: analyses of one finished
// run may join and stop its meter from several goroutines at once;
// every join still returns the oracle's ratio.
func TestMeasuredCompressionConcurrentCallers(t *testing.T) {
	c := NewCollector(topology.MustNew(topology.SmallConfig()), Config{})
	recs := sampleRecords(4 * compressBatch)
	for _, r := range recs {
		endFlow(c, r)
	}
	want, err := MeasureCompression(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.StartCompressionMeter()
	const callers = 4
	got := make([]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.MeasuredCompression()
		}()
		go func() {
			defer wg.Done()
			c.StopCompressionMeter()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("caller %d: MeasuredCompression = %v, %v; want %v", i, got[i], errs[i], want)
		}
	}
}
