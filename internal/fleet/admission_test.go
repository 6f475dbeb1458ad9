package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dctraffic/internal/core"
)

// TestEstimatePeakMBBoundsLiveHeap runs fused laptop configs and
// requires each admission estimate to be at least the live heap after a
// forced GC at the run's last window, where every whole-run structure
// the estimate counts is nearly full.
func TestEstimatePeakMBBoundsLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("six fused laptop runs")
	}
	for _, d := range []time.Duration{30 * time.Minute, 2 * time.Hour} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := core.SmallRun()
			cfg.Duration = d
			cfg.Seed = seed
			var live uint64
			_, _, err := core.RunAnalyze(context.Background(), cfg, core.WithStreamProgress(func(p core.StreamProgress) {
				if p.Time < p.Duration {
					return
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				live = max(live, ms.HeapAlloc)
			}))
			if err != nil {
				t.Fatal(err)
			}
			if live == 0 {
				t.Fatalf("%v seed %d: no progress report at the last window", d, seed)
			}
			liveMB := float64(live) / (1 << 20)
			if est := EstimatePeakMB(cfg); float64(est) < liveMB {
				t.Errorf("%v seed %d: estimate %d MB, live heap at the last window %.1f MB", d, seed, est, liveMB)
			}
		}
	}
}
