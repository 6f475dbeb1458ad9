package fleet

import (
	"context"
	"testing"

	"dctraffic/internal/core"
)

// benchSpecs is the BENCH_fleet.json workload: the three-config sweep
// the determinism test uses (two fabrics, two seeds). The pair below
// measures fleet overlap against the same configs run back to back —
// on a single-proc box the two are expected to tie (see EXPERIMENTS.md
// "Runtime"); with cores to spare the fleet run overlaps whole
// pipelines.
func benchSpecs() []RunSpec { return testSpecs() }

func BenchmarkFleetSweep(b *testing.B) {
	specs := benchSpecs()
	for i := 0; i < b.N; i++ {
		res, err := Execute(context.Background(), specs, Options{MaxHeapMB: -1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d runs failed", res.Failed)
		}
	}
}

func BenchmarkFleetSequential(b *testing.B) {
	specs := benchSpecs()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			if _, _, err := core.RunAnalyze(context.Background(), sp.Config); err != nil {
				b.Fatal(err)
			}
		}
	}
}
