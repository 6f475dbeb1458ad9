package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// childEnv marks a self-exec'd rep: dcbench re-runs its own binary with
// this variable set, and main dispatches to runChild.
const childEnv = "DCBENCH_CHILD"

// Child modes.
const (
	modeOp     = "op"     // set up, then run the timed op once
	modeRef    = "ref"    // set up, then compute the reference digests
	modeTraced = "traced" // the op with spans and hooks, then the probes
)

// childResult is what a child prints as its last stdout line.
type childResult struct {
	SetupS  float64            `json:"setup_s"`
	WallS   float64            `json:"wall_s"`
	CPUS    float64            `json:"cpu_s"`
	Digests []string           `json:"digests"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

// runChild runs one rep in this (child) process and prints its result.
// The process exits nonzero on any error; a panic crashes it, which the
// parent counts the same way.
func runChild(args []string) int {
	fs := flag.NewFlagSet("dcbench child", flag.ContinueOnError)
	mode := fs.String("mode", modeOp, "op, ref or traced")
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	toy := fs.Bool("toy", false, "toy scale")
	dir := fs.String("dir", "", "scratch directory")
	startNs := fs.Int64("start", 0, "parent's wall clock (Unix ns) when it started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := child(*mode, *name, *seed, *toy, *dir, *startNs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcbench: %s %s seed %d: %v\n", *mode, *name, *seed, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 1
	}
	return 0
}

func child(mode, name string, seed uint64, toy bool, dir string, startNs int64) (*childResult, error) {
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	ctx := context.Background()
	var tr *tracer
	if mode == modeTraced {
		tr = newTracer()
	}
	in, err := setup(ctx, w, seed, toy, dir, mode != modeRef, tr)
	if err != nil {
		return nil, err
	}
	if mode == modeRef {
		ds, err := w.ref(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		return &childResult{Digests: ds}, nil
	}

	resetPeakRSS()
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
		tr.root = tr.begin("op."+w.name, 0)
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outs, err := w.op(ctx, in, tr)
	wall := time.Since(t0).Seconds()
	cpu1, cerr := cpuSeconds()
	if err = errors.Join(err, cerr); err != nil {
		return nil, err
	}
	res := &childResult{
		SetupS: float64(t0.UnixNano()-startNs) / 1e9,
		WallS:  wall,
		CPUS:   cpu1 - cpu0,
	}
	for _, o := range outs {
		res.Digests = append(res.Digests, o.digest)
	}
	if tr == nil {
		return res, nil
	}
	tr.end(tr.root)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tr.root = 0
	res.Layers = layerMetrics(in, outs, tr, &ms0, &ms1)
	if err := probe(ctx, w, in, tr, wall, res.Layers); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	res.Spans = tr.finish()
	return res, nil
}

// cpuSeconds is this process's user + system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	cpu, _ := rusageMetrics(&ru)
	return cpu, nil
}

// resetPeakRSS restarts the kernel's peak-RSS counter (Linux ≥ 4.0), so
// the ru_maxrss the parent reads covers the op and not set-up. Where
// the reset is unavailable the peak includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
