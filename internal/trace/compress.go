package trace

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// CompressionSample is how many leading records, in completion order,
// the §2 compression ratio is measured on (Collector.MeasuredCompression).
const CompressionSample = 100_000

// compressBatch is the record count of one batch the collector hands
// its compression meter.
const compressBatch = 1024

// errMeterStopped is the result of a measurement abandoned by
// Collector.StopCompressionMeter.
var errMeterStopped = errors.New("trace: compression meter stopped")

func compressionRatio(raw, comp int64) float64 {
	if comp == 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}

// gzEncoder is the encode → gzip → count pipeline: one JSON line per
// record into a gzip stream, counting the bytes on both sides of the
// compressor. The compressed output is a pure function of the record
// sequence.
type gzEncoder struct {
	raw, comp countingWriter
	gz        *gzip.Writer
	buf       []byte // one encoded line, reused
	n         int
}

func newGzEncoder(w io.Writer) *gzEncoder {
	e := &gzEncoder{comp: countingWriter{w: w}}
	e.gz = gzip.NewWriter(&e.comp)
	e.raw.w = e.gz
	return e
}

func (e *gzEncoder) encode(rec *FlowRecord) error {
	e.buf = appendJSONL(e.buf[:0], rec)
	if _, err := e.raw.Write(e.buf); err != nil {
		return fmt.Errorf("trace: encode record %d: %w", e.n, err)
	}
	e.n++
	return nil
}

// close flushes the gzip stream and returns the byte counts.
func (e *gzEncoder) close() (raw, compressed int64, err error) {
	if err := e.gz.Close(); err != nil {
		return 0, 0, fmt.Errorf("trace: close gzip: %w", err)
	}
	return e.raw.n, e.comp.n, nil
}

// countingWriter counts bytes passing through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// compressMeter measures the compression ratio of the first
// CompressionSample records of a stream on a goroutine of its own, so
// the deflate work overlaps whatever produces the records.
//
// One feeder goroutine calls feed, feedLog and closeFeed. The batch
// channel holds every batch the sample can fill, so a send never
// blocks the feeder. Batches are copies or slices of a log that no
// longer grows, so the meter never holds a superseded backing array
// of a growing log.
type compressMeter struct {
	batches chan []FlowRecord
	done    chan struct{} // closed when the goroutine has exited
	stopped atomic.Bool   // abandon the measurement at the next batch

	// Feeder side.
	buf    []FlowRecord
	fed    int
	closed bool

	// Written by the goroutine before done closes.
	ratio float64
	err   error
}

func newCompressMeter() *compressMeter {
	m := &compressMeter{
		batches: make(chan []FlowRecord, (CompressionSample+compressBatch-1)/compressBatch),
		done:    make(chan struct{}),
	}
	//dctlint:ignore gostmt the §2 compression meter, one per collector (DESIGN.md §5): it encodes the records in the order one feeder sends them, owns its encoder, and its ratio is read only after done closes
	go m.run()
	return m
}

// run streams every batch through one gzEncoder; after a stop or an
// error it drains the remaining batches without encoding them.
func (m *compressMeter) run() {
	defer close(m.done)
	enc := newGzEncoder(io.Discard)
	for batch := range m.batches {
		if m.err == nil && m.stopped.Load() {
			m.err = errMeterStopped
		}
		for i := 0; i < len(batch) && m.err == nil; i++ {
			m.err = enc.encode(&batch[i])
		}
	}
	if m.err != nil {
		return
	}
	raw, comp, err := enc.close()
	m.ratio, m.err = compressionRatio(raw, comp), err
}

// feed copies one record into the current batch, sending the batch
// when it is full and closing the feed when the sample is.
func (m *compressMeter) feed(rec FlowRecord) {
	if m.closed {
		return
	}
	if m.buf == nil {
		m.buf = make([]FlowRecord, 0, compressBatch)
	}
	m.buf = append(m.buf, rec)
	m.fed++
	if len(m.buf) == compressBatch {
		m.batches <- m.buf
		m.buf = nil
	}
	if m.fed == CompressionSample {
		m.closeFeed()
	}
}

// feedLog hands over records already in the log: whole batches as
// slices of it, the remainder through feed.
func (m *compressMeter) feedLog(recs []FlowRecord) {
	recs = recs[:min(len(recs), CompressionSample)]
	for len(recs) >= compressBatch {
		m.batches <- recs[:compressBatch:compressBatch]
		m.fed += compressBatch
		recs = recs[compressBatch:]
	}
	for i := range recs {
		m.feed(recs[i])
	}
}

// closeFeed sends the partial batch and ends the stream. Idempotent.
func (m *compressMeter) closeFeed() {
	if m.closed {
		return
	}
	m.closed = true
	if len(m.buf) > 0 {
		m.batches <- m.buf
		m.buf = nil
	}
	close(m.batches)
}
