package fleet

import (
	"math"
	"runtime/debug"
	"sync"
	"time"

	"dctraffic/internal/core"
	"dctraffic/internal/cosmos"
	"dctraffic/internal/sched"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// memGate is the admission controller: it caps the sum of in-flight
// runs' estimated peak heaps at a budget. Runs are admitted in config
// order (the launcher acquires index by index), so the gate changes
// only when runs start, never which runs produce what. A run whose
// estimate exceeds the whole budget is still admitted — alone — so an
// over-budget config degrades to sequential execution instead of
// deadlocking.
type memGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int // MB; <= 0 disables the gate
	used   int
	waits  int
}

func newMemGate(budgetMB int) *memGate {
	g := &memGate{budget: budgetMB}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until mb fits in the remaining budget (or the gate is
// idle), then reserves it. Reports whether it had to wait.
func (g *memGate) acquire(mb int) (waited bool) {
	if g.budget <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.used > 0 && g.used+mb > g.budget {
		if !waited {
			waited = true
			g.waits++
		}
		g.cond.Wait()
	}
	g.used += mb
	return waited
}

// release returns a reservation and wakes blocked acquirers.
func (g *memGate) release(mb int) {
	if g.budget <= 0 {
		return
	}
	g.mu.Lock()
	g.used -= mb
	g.mu.Unlock()
	g.cond.Broadcast()
}

// waitCount reports how many acquisitions had to block.
func (g *memGate) waitCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waits
}

// DefaultBudgetMB derives a fleet memory budget from the process's
// GOMEMLIMIT: 80% of the limit when one is set (headroom for GC slack
// and non-run allocations), 0 — no gate — when unlimited. Reading the
// limit does not change it.
func DefaultBudgetMB() int {
	limit := debug.SetMemoryLimit(-1)
	if limit <= 0 || limit == int64(^uint64(0)>>1) { // unset: MaxInt64
		return 0
	}
	mb := limit * 8 / 10 >> 20
	if mb < 1 {
		mb = 1
	}
	return int(mb)
}

// EstimatePeakMB is the admission controller's coarse, deterministic
// peak-live-heap model for one fused RunAnalyze pipeline, derived from
// what such a run keeps until it ends. A fused run keeps no flow
// records, read attempts or lifecycle records: each record joins the
// congestion episodes as the sweep delivers it, each read attempt
// counts once its flow has joined, and lifecycle records are only
// counted. Its link stats keep the bins the episode tracker has not
// scanned yet, about one simulator batch (a simulated minute) per
// inter-switch link, and the sweep's window view holds only open
// windows' records. What grows with the run is
//
//   - the job event log's membership rows, one per completed vertex,
//     which the tomography multipliers read: at most one 40-byte row
//     per four flows;
//   - the finished scheduler jobs and their compiled workflows, about
//     32 bytes per flow;
//   - the sweep's whole-run CDFs — Figure 9's three (one weighted, 16
//     bytes a sample), the cluster, ToR and server inter-arrival gaps
//     (the last two up to two samples per flow) and Figure 7's two — each
//     exact up to stats.DefaultCDFSampleCap samples and a bounded sketch
//     beyond;
//   - one racks × racks ToR matrix per tomography window, parked until
//     the run ends;
//
// on top of a base for the runtime, topology, store, scheduler, meter,
// window view and live seam, which grows with the servers. Flows are
// estimated per job from the extents a job's median batch input spans:
// the largest ratio measured, at laptop scale (64 MiB extents), is 27
// flows per extent; a paper day (256 MiB extents) measured 13.5. Append
// growth leaves up to a quarter of each growing slice unused. Jobs
// arrive at JobsPerHour over the whole window, which overstates short
// laptop runs that start in the diurnal trough. Not modeled: the
// records a long-running flow holds behind the live seam's watermark,
// with their read attempts waiting for the joins, which at the default
// (wide) job sizes took a 24 h laptop run past the estimate. Depending
// only on the config, the same sweep always yields the same admission
// schedule. EXPERIMENTS.md "A fused run keeps no bins, reads or
// lifecycle log" records the estimate against measured live heaps.
func EstimatePeakMB(cfg core.RunConfig) int {
	const (
		baseMB         = 16
		serverBytes    = 16 << 10 // topology, store and scheduler per server
		flowsPerExtent = 27
		memberPerFlow  = 40.0 / 4 // membership bytes per flow
		jobPerFlow     = 32       // finished-job bytes per flow
		growth         = 1.25     // append slack
		matrixEntry    = 24       // bytes per ToR-matrix entry
	)
	tc := cfg.Topology
	torLinks := tc.Racks
	if tc.MultiPath {
		torLinks *= tc.AggSwitches
	}
	links := 2 * (torLinks + tc.AggSwitches)
	binSize := cfg.UtilBinSize
	if binSize <= 0 {
		binSize = time.Second
	}
	// A batch of bins past the frontier, the partial ones at either end,
	// and append slack up to twice that.
	tailBins := 2 * float64(time.Minute/binSize+2)

	jobsPerHour := cfg.Sched.JobsPerHour
	if jobsPerHour <= 0 {
		jobsPerHour = sched.DefaultConfig().JobsPerHour
	}
	input := cfg.Sched.BatchInputMedian
	if input <= 0 {
		input = sched.DefaultConfig().BatchInputMedian
	}
	extent := cfg.Store.ExtentBytes
	if extent <= 0 {
		extent = cosmos.DefaultConfig().ExtentBytes
	}
	flows := jobsPerHour * cfg.Duration.Hours() * flowsPerExtent * math.Max(1, float64(input)/float64(extent))

	cdfBytes := 0.0
	for _, c := range []struct{ perFlow, bytes float64 }{
		{1, 8}, {1, 16}, {1, 8}, // Figure 9: by flows, by bytes, rates
		{1, 8}, {2, 8}, {2, 8}, // inter-arrivals: cluster, ToR, server
		{1, 8}, {1, 8}, // Figure 7: overlapping, all
	} {
		cdfBytes += math.Min(c.perFlow*flows, stats.DefaultCDFSampleCap) * c.bytes
	}
	opts := core.AnalyzeOptions{}.ApplyDefaults(cfg.Duration)
	tomoWindows := min(int((cfg.Duration+opts.TomoBin-1)/opts.TomoBin), opts.TomoMaxTMs)

	bytes := float64(tc.Racks*tc.ServersPerRack)*serverBytes +
		float64(links)*tailBins*8 +
		flows*(memberPerFlow*growth+jobPerFlow) +
		cdfBytes*growth +
		float64(tomoWindows)*float64(tc.Racks*tc.Racks)*matrixEntry
	return baseMB + int(bytes/(1<<20))
}

// topoCache shares immutable Topology values between runs with equal
// topology configs (topology.Config is comparable), so the link tables
// and the precomputed routing artifacts are built once per distinct
// config per sweep.
type topoCache struct {
	mu     sync.Mutex
	built  map[topology.Config]*topology.Topology
	hits   int
	misses int
}

func newTopoCache() *topoCache {
	return &topoCache{built: make(map[topology.Config]*topology.Topology)}
}

// get returns the shared topology for cfg, building it on first use.
func (c *topoCache) get(cfg topology.Config) (*topology.Topology, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.built[cfg]; ok {
		c.hits++
		return t, nil
	}
	t, err := topology.New(cfg)
	if err != nil {
		return nil, err
	}
	c.misses++
	c.built[cfg] = t
	return t, nil
}

// stats reports cache hits and misses so far.
func (c *topoCache) stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
