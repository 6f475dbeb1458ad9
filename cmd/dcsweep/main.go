// dcsweep runs a sweep of simulate+analyze pipelines — seeds × fabrics
// over one topology/duration — concurrently on the fleet executor: up
// to -n runs in flight, one goroutine each, and an admission gate caps
// in-flight runs by estimated peak heap (derived from GOMEMLIMIT unless
// -max-heap-mb overrides it).
// Per-run reports are bit-identical to standalone dcanalyze -fused at
// any concurrency; the per-run digest in the manifest is the proof
// handle.
//
//	dcsweep -racks 8 -servers 10 -duration 30m -seeds 1,2,3 \
//	        -fabrics tree,multipath -n 2 \
//	        -metrics sweep.json -json sweep-manifest.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dctraffic/internal/core"
	"dctraffic/internal/fleet"
)

func main() {
	racks := flag.Int("racks", 8, "number of racks")
	servers := flag.Int("servers", 10, "servers per rack")
	duration := flag.Duration("duration", 2*time.Hour, "instrumented window per run")
	drain := flag.Duration("drain", 30*time.Minute, "post-window drain per run")
	seeds := flag.String("seeds", "1,2,3", "comma-separated simulation seeds, one run per seed per fabric")
	fabrics := flag.String("fabrics", "tree", "comma-separated fabrics to sweep: tree, multipath")
	paper := flag.Bool("paper", false, "use the paper-scale configuration (75 racks x 20 servers, 24h) instead of -racks/-servers/-duration")
	concurrency := flag.Int("n", 0, "pipelines in flight (0 = GOMAXPROCS)")
	maxHeapMB := flag.Int("max-heap-mb", 0, "in-flight estimated-heap budget in MiB (0 = 80% of GOMEMLIMIT when set, negative = no gate)")
	metricsOut := flag.String("metrics", "", "write the merged fleet metrics snapshot (fleet.* + per-run runN.* + cross-run rollup) to this file")
	jsonOut := flag.String("json", "", "write the machine-readable sweep manifest (config, digest, timing, peak-buffered per run) to this file")
	progress := flag.Bool("progress", false, "report each run's completion on stderr")
	flag.Parse()

	specs, err := buildSpecs(*paper, *racks, *servers, *duration, *drain, *seeds, *fabrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsweep:", err)
		os.Exit(2)
	}

	opts := fleet.Options{
		Concurrency: *concurrency,
		MaxHeapMB:   *maxHeapMB,
	}
	if *progress {
		total := len(specs)
		opts.OnRunDone = func(o fleet.RunOutcome) {
			status := "ok " + short(o.Digest)
			if o.Err != nil {
				status = "FAIL " + o.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-24s %6.1fs  %s\n",
				o.Index+1, total, o.Name, o.WallSeconds, status)
		}
	}

	sw := time.Now()
	res, err := fleet.Execute(context.Background(), specs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsweep:", err)
		os.Exit(1)
	}
	wall := time.Since(sw).Seconds()

	fmt.Printf("sweep: %d runs, concurrency %.0f, budget %.0f MiB, %.1fs wall\n",
		len(res.Outcomes), res.Metrics.Value("fleet.concurrency"),
		res.Metrics.Value("fleet.budget_mb"), wall)
	fmt.Printf("%-5s %-24s %-14s %9s %10s %9s %7s %s\n",
		"idx", "name", "digest", "wall_s", "records", "peak_buf", "est_mb", "status")
	for _, o := range res.Outcomes {
		status := "ok"
		if o.Err != nil {
			status = "FAIL: " + o.Err.Error()
		} else if o.Waited {
			status = "ok (waited)"
		}
		fmt.Printf("%-5d %-24s %-14s %9.1f %10d %9d %7d %s\n",
			o.Index, o.Name, short(o.Digest), o.WallSeconds, o.Records, o.PeakBuffered, o.EstMB, status)
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "dcsweep:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := writeManifest(*jsonOut, res, wall); err != nil {
			fmt.Fprintln(os.Stderr, "dcsweep:", err)
			os.Exit(1)
		}
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "dcsweep: %d/%d runs failed\n", res.Failed, len(res.Outcomes))
		os.Exit(1)
	}
}

// buildSpecs expands seeds × fabrics into the config-ordered sweep:
// fabrics outermost so tree runs (the reference fabric) carry the low
// indices.
func buildSpecs(paper bool, racks, servers int, duration, drain time.Duration, seedsCSV, fabricsCSV string) ([]fleet.RunSpec, error) {
	var seedList []uint64
	for _, s := range strings.Split(seedsCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", s, err)
		}
		seedList = append(seedList, v)
	}
	if len(seedList) == 0 {
		return nil, fmt.Errorf("no seeds in %q", seedsCSV)
	}
	var specs []fleet.RunSpec
	for _, fabric := range strings.Split(fabricsCSV, ",") {
		fabric = strings.TrimSpace(fabric)
		var multipath bool
		switch fabric {
		case "tree":
		case "multipath":
			multipath = true
		case "":
			continue
		default:
			return nil, fmt.Errorf("unknown fabric %q (want tree or multipath)", fabric)
		}
		for _, seed := range seedList {
			cfg := core.SmallRun()
			if paper {
				cfg = core.PaperRun()
			} else {
				cfg.Topology.Racks = racks
				cfg.Topology.ServersPerRack = servers
				cfg.Duration = duration
				cfg.DrainTime = drain
				cfg.Sched.JobsPerHour = 150 * float64(racks*servers) / 80
			}
			cfg.Topology.MultiPath = multipath
			cfg.Seed = seed
			cfg.Sched.Seed = seed
			specs = append(specs, fleet.RunSpec{
				Name:   fmt.Sprintf("seed%d-%s", seed, fabric),
				Config: cfg,
			})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no fabrics in %q", fabricsCSV)
	}
	return specs, nil
}

func writeMetrics(path string, res *fleet.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Metrics.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifestRun is one run's row in the -json manifest: enough config to
// regenerate the run, the digest proving what it computed, and the
// throughput/memory observations the comparison harness consumes.
type manifestRun struct {
	Index               int     `json:"index"`
	Name                string  `json:"name"`
	Seed                uint64  `json:"seed"`
	Racks               int     `json:"racks"`
	ServersPerRack      int     `json:"servers_per_rack"`
	MultiPath           bool    `json:"multipath"`
	DurationSec         float64 `json:"duration_sec"`
	DrainSec            float64 `json:"drain_sec"`
	Digest              string  `json:"digest,omitempty"`
	WallSeconds         float64 `json:"wall_seconds"`
	Records             int64   `json:"records"`
	PeakBufferedRecords int64   `json:"peak_buffered_records"`
	EstMB               int     `json:"est_mb"`
	AdmissionWaited     bool    `json:"admission_waited"`
	Error               string  `json:"error,omitempty"`
}

type manifest struct {
	Concurrency int           `json:"concurrency"`
	BudgetMB    int           `json:"budget_mb"`
	WallSeconds float64       `json:"wall_seconds"`
	Failed      int           `json:"failed"`
	Runs        []manifestRun `json:"runs"`
}

func writeManifest(path string, res *fleet.Result, wall float64) error {
	m := manifest{
		Concurrency: int(res.Metrics.Value("fleet.concurrency")),
		BudgetMB:    int(res.Metrics.Value("fleet.budget_mb")),
		WallSeconds: wall,
		Failed:      res.Failed,
	}
	for _, o := range res.Outcomes {
		r := manifestRun{
			Index:               o.Index,
			Name:                o.Name,
			Seed:                o.Config.Seed,
			Racks:               o.Config.Topology.Racks,
			ServersPerRack:      o.Config.Topology.ServersPerRack,
			MultiPath:           o.Config.Topology.MultiPath,
			DurationSec:         o.Config.Duration.Seconds(),
			DrainSec:            o.Config.DrainTime.Seconds(),
			Digest:              o.Digest,
			WallSeconds:         o.WallSeconds,
			Records:             o.Records,
			PeakBufferedRecords: o.PeakBuffered,
			EstMB:               o.EstMB,
			AdmissionWaited:     o.Waited,
		}
		if o.Err != nil {
			r.Error = o.Err.Error()
		}
		m.Runs = append(m.Runs, r)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
