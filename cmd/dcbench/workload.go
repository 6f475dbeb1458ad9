package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dctraffic/internal/core"
	"dctraffic/internal/fleet"
	"dctraffic/internal/obs"
	"dctraffic/internal/sched"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// workload is one closed batch job: its op takes run configs in and
// produces the final Reports out. The seed is the only input it varies.
type workload struct {
	name string
	// simulates marks workloads whose op runs the simulator, so the
	// simulator probes and A/Bs of a traced run apply to them.
	simulates bool
	// configs returns the op's run configs for a seed.
	configs func(seed uint64, toy bool) []core.RunConfig
	// op runs the timed operation on prepared inputs, returning one
	// result per Report in config order.
	op func(ctx context.Context, in *inputs, tr *tracer) ([]runOut, error)
	// ref computes the same Reports by another public path, the oracle
	// the op's digests must equal.
	ref func(ctx context.Context, in *inputs) ([]string, error)
}

// inputs are what set-up prepares before the timed op.
type inputs struct {
	cfgs      []core.RunConfig
	top       *topology.Topology // prebuilt from cfgs[0]; every op that uses it runs one fabric
	tracePath string             // trace-stream: the JSONL trace the op reads
	dir       string             // scratch directory for the trace and spills
	// setup-time layer measurements, reported by traced runs
	buildMs, writeS, fileMB float64
}

// runOut is one Report's outcome plus the obs snapshots of the run
// that produced it (nil where the path keeps no registry).
type runOut struct {
	digest string
	sim    *obs.Snapshot
	an     *obs.Snapshot
}

// batchSeeds is the number of consecutive seeds one laptop-scale op
// (fused-laptop, sweep) runs back to back. Single runs of this simulator
// differ widely in cost from seed to seed; a batch of three narrows the
// spread between invocations.
const batchSeeds = 3

var workloads = []*workload{
	{
		name:      "fused-laptop",
		simulates: true,
		configs:   laptopConfigs,
		op:        fusedOp,
		ref:       twoPhaseRef,
	},
	{
		name:      "sweep",
		simulates: true,
		configs: func(seed uint64, toy bool) []core.RunConfig {
			tree := laptopConfigs(seed, toy)
			var cfgs []core.RunConfig
			for _, multipath := range []bool{false, true} {
				for _, c := range tree {
					c.Topology.MultiPath = multipath
					cfgs = append(cfgs, c)
				}
			}
			return cfgs
		},
		op:  sweepOp,
		ref: fusedRef,
	},
	{
		name:      "paper-tomo",
		simulates: true,
		configs:   paperConfigs,
		op:        twoPhaseOp,
		ref:       fusedRef,
	},
	{
		name:    "trace-stream",
		configs: traceConfigs,
		op:      traceOp,
		ref:     traceRef,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// steadySizes narrows the workload's input-size distributions to a p90
// of 1.5× the median (the defaults use 6–8×): with the default tail a
// single giant job decides a run's cost, so two seeds of the same
// workload differ by up to 7× in time. README.md compares the live
// seam's load under both distributions.
func steadySizes(sc *sched.Config) {
	sc.BatchInputP90 = sc.BatchInputMedian * 3 / 2
	sc.InteractiveInputP90 = sc.InteractiveInputMedian * 3 / 2
	sc.DatasetP90 = sc.DatasetMedian * 3 / 2
}

// laptopConfig is the 8×10 SmallRun cluster (4×5 at toy scale) for seed,
// with arrivals scaled to cluster size as dcanalyze and dcsweep do.
func laptopConfig(seed uint64, toy bool, duration time.Duration) core.RunConfig {
	cfg := core.SmallRun()
	cfg.Duration = duration
	cfg.DrainTime = 20 * time.Minute
	if toy {
		cfg.Topology.Racks, cfg.Topology.ServersPerRack = 4, 5
		cfg.Duration, cfg.DrainTime = 20*time.Minute, 10*time.Minute
	}
	cfg.Sched.JobsPerHour = 150 * float64(cfg.Topology.Racks*cfg.Topology.ServersPerRack) / 80
	steadySizes(&cfg.Sched)
	cfg.Seed, cfg.Sched.Seed = seed, seed
	return cfg
}

func laptopConfigs(seed uint64, toy bool) []core.RunConfig {
	cfgs := make([]core.RunConfig, batchSeeds)
	for i := range cfgs {
		cfgs[i] = laptopConfig(seed+uint64(i), toy, 6*time.Hour)
	}
	return cfgs
}

// paperSeeds is the number of consecutive seeds one paper-tomo op runs.
// The op's cost follows the warm-started simplex's total pivot count,
// which differs by about 20 % (CV) from seed to seed whether a seed runs
// 2 h or 6 h, so the op runs many short seeds rather than a few long
// ones.
const paperSeeds = 10

// paperConfigs is PaperRun narrowed to 40 racks for 2 h. At 75 racks a
// seed's tomography cost swings 4× with how often the warm-started
// simplex falls back to a cold solve (about one window in twelve); at 60
// racks fallbacks are rare but still happen. At 40 racks none fell back
// over 30 seeds, and the solvers still take about half the op.
func paperConfigs(seed uint64, toy bool) []core.RunConfig {
	cfgs := make([]core.RunConfig, paperSeeds)
	for i := range cfgs {
		s := seed + uint64(i)
		if toy {
			cfgs[i] = laptopConfig(s, true, 0)
			continue
		}
		cfg := core.PaperRun()
		cfg.Topology.Racks = 40
		cfg.Sched.JobsPerHour = 900 * 40 / 75
		cfg.Duration, cfg.DrainTime = 2*time.Hour, 20*time.Minute
		steadySizes(&cfg.Sched)
		cfg.Seed, cfg.Sched.Seed = s, s
		cfgs[i] = cfg
	}
	return cfgs
}

// traceConfigs is one 30-hour laptop run: about 390 k records, more
// than trace.FileSource sorts in memory, so the op takes the spill and
// merge path as a day-plus trace does.
func traceConfigs(seed uint64, toy bool) []core.RunConfig {
	return []core.RunConfig{laptopConfig(seed, toy, 30*time.Hour)}
}

// setup prepares the op's inputs: the configs and their topology, and
// for trace-stream (unless only the reference runs) the simulated trace
// written as JSONL to dir. The fleet builds and caches its own
// topologies, so sweep's op leaves the prebuilt one unused.
func setup(ctx context.Context, w *workload, seed uint64, toy bool, dir string, withTrace bool, tr *tracer) (*inputs, error) {
	in := &inputs{cfgs: w.configs(seed, toy), dir: dir}
	id := tr.begin("topology.build", 0)
	t0 := time.Now()
	top, err := topology.New(in.cfgs[0].Topology)
	in.buildMs = msSince(t0)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	in.top = top
	if w.simulates || !withTrace {
		return in, nil
	}
	id = tr.begin("setup.simulate", 0)
	rr, err := core.Run(ctx, in.cfgs[0], core.WithPrebuiltTopology(top))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	id = tr.begin("setup.write", 0)
	t0 = time.Now()
	in.tracePath = filepath.Join(dir, "trace.jsonl")
	if err := writeTrace(in.tracePath, rr.Records()); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	in.writeS = time.Since(t0).Seconds()
	tr.end(id)
	st, err := os.Stat(in.tracePath)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	in.fileMB = float64(st.Size()) / (1 << 20)
	// Hand the simulation's memory back (rr is dead from here) so the
	// op's peak RSS is its own.
	runtime.GC()
	debug.FreeOSMemory()
	return in, nil
}

func writeTrace(path string, recs []trace.FlowRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := trace.NewWriter(f)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func digestOf(rep *core.Report) (string, error) {
	d, err := core.ReportDigest(rep)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return d, nil
}

// fusedOp runs each config through core.RunAnalyze, back to back.
func fusedOp(ctx context.Context, in *inputs, tr *tracer) ([]runOut, error) {
	var outs []runOut
	for _, cfg := range in.cfgs {
		an := tr.registry()
		id := tr.begin("core.RunAnalyze", -1)
		ropts := append([]core.RunOption{core.WithPrebuiltTopology(in.top)}, tr.runOpts(id)...)
		aopts := append([]core.AnalyzeOption{core.WithRunOptions(ropts...)}, tr.analyzeOpts(id, an)...)
		rr, rep, err := core.RunAnalyze(ctx, cfg, aopts...)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		d, err := digestOf(rep)
		if err != nil {
			return nil, err
		}
		outs = append(outs, runOut{digest: d, sim: rr.Metrics, an: an.Snapshot()})
	}
	return outs, nil
}

// twoPhaseOp runs each config through core.Run, then core.AnalyzeRun.
func twoPhaseOp(ctx context.Context, in *inputs, tr *tracer) ([]runOut, error) {
	var outs []runOut
	for _, cfg := range in.cfgs {
		id := tr.begin("core.Run", -1)
		rr, err := core.Run(ctx, cfg, append([]core.RunOption{core.WithPrebuiltTopology(in.top)}, tr.runOpts(id)...)...)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		an := tr.registry()
		id = tr.begin("core.AnalyzeRun", -1)
		rep, err := core.AnalyzeRun(ctx, rr, tr.analyzeOpts(id, an)...)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		d, err := digestOf(rep)
		if err != nil {
			return nil, err
		}
		outs = append(outs, runOut{digest: d, sim: rr.Metrics, an: an.Snapshot()})
	}
	return outs, nil
}

// sweepOp runs every config through one fleet.Execute with default
// options.
func sweepOp(ctx context.Context, in *inputs, tr *tracer) ([]runOut, error) {
	res, err := runFleet(ctx, in.cfgs, fleet.Options{}, tr)
	if err != nil {
		return nil, err
	}
	outs := make([]runOut, len(res.Outcomes))
	for i, o := range res.Outcomes {
		outs[i] = runOut{digest: o.Digest, sim: o.SimMetrics, an: o.AnalyzeMetrics}
	}
	if tr != nil {
		tr.fleet = res.Metrics
	}
	return outs, nil
}

func runFleet(ctx context.Context, cfgs []core.RunConfig, opts fleet.Options, tr *tracer) (*fleet.Result, error) {
	specs := make([]fleet.RunSpec, len(cfgs))
	for i, c := range cfgs {
		specs[i] = fleet.RunSpec{Name: fmt.Sprintf("run%d", i), Config: c}
	}
	id := tr.begin("fleet.Execute", -1)
	opts.OnRunDone = tr.fleetRunDone(id)
	res, err := fleet.Execute(ctx, specs, opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, o := range res.Outcomes {
		if o.Err != nil {
			return nil, o.Err
		}
	}
	return res, nil
}

// traceOp streams the set-up trace file through core.AnalyzeSource.
func traceOp(ctx context.Context, in *inputs, tr *tracer) ([]runOut, error) {
	return analyzeFile(ctx, in, tr)
}

func analyzeFile(ctx context.Context, in *inputs, tr *tracer, extra ...core.AnalyzeOption) ([]runOut, error) {
	id := tr.begin("trace.OpenFile", -1)
	src, err := trace.OpenFile(in.tracePath, trace.FileOptions{TempDir: in.dir})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	an := tr.registry()
	id = tr.begin("core.AnalyzeSource", -1)
	opts := append([]core.AnalyzeOption{core.WithTopology(in.top), core.WithDuration(in.cfgs[0].Duration)}, extra...)
	rep, err := core.AnalyzeSource(ctx, src, append(opts, tr.analyzeOpts(id, an)...)...)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	d, err := digestOf(rep)
	if err != nil {
		return nil, err
	}
	return []runOut{{digest: d, an: an.Snapshot()}}, nil
}

// twoPhaseRef is the fused op's oracle: core.Run then core.AnalyzeRun.
func twoPhaseRef(ctx context.Context, in *inputs) ([]string, error) {
	return digests(twoPhaseOp(ctx, in, nil))
}

// fusedRef is the oracle of the fleet and two-phase ops: each config
// through a standalone core.RunAnalyze.
func fusedRef(ctx context.Context, in *inputs) ([]string, error) {
	var ds []string
	for _, cfg := range in.cfgs {
		_, rep, err := core.RunAnalyze(ctx, cfg)
		if err != nil {
			return nil, err
		}
		d, err := digestOf(rep)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// traceRef analyzes the trace's records in memory instead of from the
// file: the file round trip must not move a digest.
func traceRef(ctx context.Context, in *inputs) ([]string, error) {
	cfg := in.cfgs[0]
	rr, err := core.Run(ctx, cfg, core.WithPrebuiltTopology(in.top))
	if err != nil {
		return nil, err
	}
	rep, err := core.AnalyzeSource(ctx, rr.Source(), core.WithTopology(in.top), core.WithDuration(cfg.Duration))
	if err != nil {
		return nil, err
	}
	d, err := digestOf(rep)
	if err != nil {
		return nil, err
	}
	return []string{d}, nil
}

func digests(outs []runOut, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	ds := make([]string, len(outs))
	for i, o := range outs {
		ds[i] = o.digest
	}
	return ds, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
