package core

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/trace"
)

// benchSim memoizes one shortened simulation shared by the analyze
// benchmarks, so iterations time only the analysis pipeline.
var (
	benchSimOnce sync.Once
	benchSimRR   *RunResult
	benchSimErr  error
)

func benchSim(b *testing.B) *RunResult {
	b.Helper()
	benchSimOnce.Do(func() {
		cfg := SmallRun()
		cfg.Duration = 30 * time.Minute
		cfg.DrainTime = 10 * time.Minute
		benchSimRR, benchSimErr = Simulate(cfg)
	})
	if benchSimErr != nil {
		b.Fatal(benchSimErr)
	}
	return benchSimRR
}

// BenchmarkAnalyzeSmall times the in-memory analysis pipeline on a
// shortened SmallRun.
func BenchmarkAnalyzeSmall(b *testing.B) {
	rr := benchSim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeRun(context.Background(), rr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFusedConfig is the end-to-end configuration the fused/two-phase
// pair times: unlike the other analyze benchmarks, these two simulate
// per iteration, because fusing the phases is the thing measured.
func benchFusedConfig() RunConfig {
	cfg := SmallRun()
	cfg.Duration = 30 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	return cfg
}

// BenchmarkRunAnalyzeTwoPhase is the baseline the fused pipeline is
// judged against: simulate to completion, then analyze the materialized
// record log — the sum of the two phases.
func BenchmarkRunAnalyzeTwoPhase(b *testing.B) {
	cfg := benchFusedConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := AnalyzeRun(context.Background(), rr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAnalyzeFused times the fused pipeline end to end: the
// analysis pulls records through the live watermarked source and steps
// the simulator as it needs them, so record-derived analysis interleaves
// with simulation and the canonical-order materialize/sort step
// disappears. Report digests are bit-identical to the two-phase
// baseline (TestRunAnalyzeMatchesTwoPhase).
func BenchmarkRunAnalyzeFused(b *testing.B) {
	cfg := benchFusedConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunAnalyze(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeStream times the bounded-memory path: the same
// records streamed from a trace file through AnalyzeSource, including
// the JSONL decode the file source pays per iteration. ReportAllocs
// makes the O(window) footprint visible next to the in-memory runs.
func BenchmarkAnalyzeStream(b *testing.B) {
	rr := benchSim(b)
	path := filepath.Join(b.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rr.Records()); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenFile(path, trace.FileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_, err = AnalyzeSource(context.Background(), src,
			WithTopology(rr.Top), WithDuration(rr.Config.Duration))
		src.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
