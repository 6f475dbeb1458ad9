package trace

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkWriteJSONL measures trace serialization throughput.
func BenchmarkWriteJSONL(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteJSONL(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadJSONL measures trace parsing throughput.
func BenchmarkReadJSONL(b *testing.B) {
	recs := sampleRecords(10_000)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBinary measures the spill codec's serialization
// throughput. Both codecs run without reflection; the external sort
// spills in this one because its records are half the size of JSONL
// lines, and spilling in JSONL made the trace-stream benchmark's wall_s
// 26 % slower (EXPERIMENTS.md, "A reflection-free trace codec").
func BenchmarkWriteBinary(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary measures the spill codec's parsing throughput.
func BenchmarkReadBinary(b *testing.B) {
	recs := sampleRecords(10_000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteJSONLGz measures compressed-upload throughput (the §2
// pipeline) and reports the achieved ratio.
func BenchmarkWriteJSONLGz(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	var raw, comp int64
	for i := 0; i < b.N; i++ {
		var err error
		raw, comp, err = WriteJSONLGz(io.Discard, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
	if comp > 0 {
		b.ReportMetric(float64(raw)/float64(comp), "compression-x")
	}
}
