package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// minReps is the fewest reps a time-bounded workload runs, so its
// quartiles rest on at least three samples.
const minReps = 3

// harness runs a workload's reps, one at a time, each in a fresh child
// process (a self-exec of this binary).
type harness struct {
	exe     string   // the binary to re-run as a child
	env     []string // the children's environment
	seed    uint64
	toy     bool
	budget  time.Duration // reps continue while under it (when reps == 0)
	reps    int           // exact rep count; 0 = run until the budget is spent
	trace   bool
	dir     string              // scratch root; each workload gets a subdirectory
	pins    map[string][]string // expected reference digests by workload; nil = unpinned
	timeout time.Duration       // per child; a time-bounded run also ends by budget + timeout
}

// sample is one rep's measurements.
type sample struct {
	SetupS    float64  `json:"setup_s"`
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Digests   []string `json:"digests,omitempty"`
	Err       string   `json:"error,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reference []string           `json:"reference_digests,omitempty"`
	RefErr    string             `json:"reference_error,omitempty"`
	Samples   []sample           `json:"samples"`
	Traced    *sample            `json:"traced,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	spans     []span
}

// run measures one workload: the timed reps, then the reference, then
// (when tracing) one traced rep. A time-bounded run also stops every
// child once the budget plus one child timeout has passed, so even
// children that all hang cannot hold it past that.
func (h *harness) run(w *workload) *result {
	r := &result{Workload: w.name}
	ctx := context.Background()
	if h.reps <= 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.budget+h.timeout)
		defer cancel()
	}
	start := time.Now()
	for i := 0; ; i++ {
		if (h.reps > 0 && i >= h.reps) || (h.reps <= 0 && i >= minReps && time.Since(start) >= h.budget) {
			break
		}
		_, s := h.spawn(ctx, w, modeOp)
		r.Samples = append(r.Samples, s)
	}
	if ref, s := h.spawn(ctx, w, modeRef); s.Err != "" {
		r.RefErr = s.Err
	} else {
		r.Reference = ref.Digests
	}
	var traced *childResult
	if h.trace {
		var s sample
		traced, s = h.spawn(ctx, w, modeTraced)
		r.Traced = &s
	}
	h.verify(r)
	r.summarize()
	if traced != nil && r.Traced.Err == "" {
		r.Layers = traced.Layers
		r.Layers["bench.trace_overhead"] = ratio(traced.WallS, r.Metrics["wall_s"].Median) - 1
		r.spans = traced.Spans
	}
	return r
}

// spawn runs one child rep and collects its result and rusage. A child
// that fails to start, exits nonzero (a panic included), times out or
// prints no result yields a sample with Err set.
func (h *harness) spawn(ctx context.Context, w *workload, mode string) (*childResult, sample) {
	var s sample
	dir := filepath.Join(h.dir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.Err = err.Error()
		return nil, s
	}
	ctx, cancel := context.WithTimeout(ctx, h.timeout)
	defer cancel()
	args := []string{"-mode", mode, "-workload", w.name, "-seed", strconv.FormatUint(h.seed, 10), "-dir", dir}
	if h.toy {
		args = append(args, "-toy")
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, h.exe, append(args, "-start", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Env = h.env
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			_, s.PeakRSSMB = rusageMetrics(ru)
		}
	}
	if err != nil {
		s.Err = fmt.Sprintf("%s child: %v", mode, err)
		return nil, s
	}
	var res childResult
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, &res); err != nil {
		s.Err = fmt.Sprintf("%s child: unreadable result: %v", mode, err)
		return nil, s
	}
	s.SetupS, s.WallS, s.CPUS, s.Digests = res.SetupS, res.WallS, res.CPUS, res.Digests
	return &res, s
}

// verify fails every rep whose digests differ from the reference, and
// every rep when the reference failed or differs from its pins.
func (h *harness) verify(r *result) {
	reps := make([]*sample, 0, len(r.Samples)+1)
	for i := range r.Samples {
		reps = append(reps, &r.Samples[i])
	}
	if r.Traced != nil {
		reps = append(reps, r.Traced)
	}
	pin, pinned := h.pins[r.Workload]
	for _, s := range reps {
		if s.Err != "" {
			continue
		}
		switch {
		case r.RefErr != "":
			s.Err = "unverified: the reference failed"
		case pinned && !slices.Equal(r.Reference, pin):
			s.Err = "the reference digests differ from the seed-1 pins"
		case !slices.Equal(s.Digests, r.Reference):
			s.Err = "digests differ from the reference"
		}
	}
	r.Attempted, r.Failed = len(reps), 0
	for _, s := range reps {
		if s.Err != "" {
			r.Failed++
		}
	}
}

// summarize computes the end-to-end metrics over the reps that passed.
func (r *result) summarize() {
	vals := make(map[string][]float64)
	for _, s := range r.Samples {
		if s.Err != "" {
			continue
		}
		vals["wall_s"] = append(vals["wall_s"], s.WallS)
		vals["cpu_s"] = append(vals["cpu_s"], s.CPUS)
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], s.PeakRSSMB)
		vals["setup_s"] = append(vals["setup_s"], s.SetupS)
	}
	r.Metrics = make(map[string]summary, len(e2eMetrics))
	for _, d := range e2eMetrics {
		r.Metrics[d.name] = summarize(vals[d.name], d.unit)
	}
}

// crossCheck is the fleet ≡ standalone check across workloads: the tree
// half of sweep runs the fused-laptop configs, so its reference digests
// must equal fused-laptop's. On a mismatch every sweep rep fails.
func crossCheck(results []*result) {
	var fused, sweep *result
	for _, r := range results {
		switch r.Workload {
		case "fused-laptop":
			fused = r
		case "sweep":
			sweep = r
		}
	}
	if fused == nil || sweep == nil || fused.RefErr != "" || sweep.RefErr != "" {
		return
	}
	n := len(fused.Reference)
	if len(sweep.Reference) >= n && slices.Equal(sweep.Reference[:n], fused.Reference) {
		return
	}
	for i := range sweep.Samples {
		if sweep.Samples[i].Err == "" {
			sweep.Samples[i].Err = "tree digests differ from fused-laptop"
			sweep.Failed++
		}
	}
	sweep.summarize()
}
