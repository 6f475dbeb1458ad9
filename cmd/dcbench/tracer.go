package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dctraffic/internal/core"
	"dctraffic/internal/fleet"
	"dctraffic/internal/obs"
)

// span is one timed call at a layer boundary of a traced run. Times are
// seconds since the traced child started; Parent 0 marks a root. Op
// groups a span with the root it descends from: the timed op, a probe
// or an A/B rerun.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	SelfS  float64 `json:"self_s"`
}

// tracer records spans in memory for one traced run, plus the samples
// the public progress hooks deliver. Every method is a no-op on a nil
// tracer, which is how untraced ops run the same code.
type tracer struct {
	t0   time.Time
	root int // the span new op-level spans hang under

	mu       sync.Mutex // hooks fire on simulator and analysis goroutines
	spans    []span
	batchMs  []float64 // wall time per simulated-minute batch (WithProgress)
	windowMs []float64 // wall time per sweep window step (WithStreamProgress)
	heapPeak float64   // live heap bytes, sampled at every hook
	heapSmp  []metrics.Sample

	fleetWalls []float64     // per-run wall seconds (fleet.Options.OnRunDone)
	fleet      *obs.Snapshot // the fleet's merged snapshot
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		heapSmp: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span under parent (0 for a root, -1 for the current op
// root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, t.now(), -1)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndS = now
	t.mu.Unlock()
}

// add records a span with explicit times (end < 0: still open).
func (t *tracer) add(name string, parent int, start, end float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.root
	}
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartS: start, EndS: end})
	return id
}

// registry returns a fresh analysis registry for a traced call, nil when
// untraced (the default path keeps none).
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return obs.NewRegistry()
}

func (t *tracer) sampleHeap() {
	metrics.Read(t.heapSmp)
	if v := float64(t.heapSmp[0].Value.Uint64()); v > t.heapPeak {
		t.heapPeak = v
	}
}

// runOpts hooks a simulation: one span per simulated-minute batch.
func (t *tracer) runOpts(parent int) []core.RunOption {
	if t == nil {
		return nil
	}
	var last time.Duration
	return []core.RunOption{core.WithProgress(func(p core.Progress) {
		end := t.now()
		d := p.WallElapsed - last
		last = p.WallElapsed
		t.add("sim.batch", parent, end-d.Seconds(), end)
		t.mu.Lock()
		t.batchMs = append(t.batchMs, float64(d.Nanoseconds())/1e6)
		t.sampleHeap()
		t.mu.Unlock()
	})}
}

// analyzeOpts hooks an analysis: the observer registry, and one span per
// sweep window step.
func (t *tracer) analyzeOpts(parent int, reg *obs.Registry) []core.AnalyzeOption {
	if t == nil {
		return nil
	}
	last := t.now()
	return []core.AnalyzeOption{
		core.WithAnalysisObserver(reg),
		core.WithStreamProgress(func(core.StreamProgress) {
			end := t.now()
			t.add("analyze.window", parent, last, end)
			t.mu.Lock()
			t.windowMs = append(t.windowMs, (end-last)*1e3)
			t.sampleHeap()
			t.mu.Unlock()
			last = end
		}),
	}
}

// fleetRunDone records each fleet run as a span ending when it reports.
func (t *tracer) fleetRunDone(parent int) func(fleet.RunOutcome) {
	if t == nil {
		return nil
	}
	return func(o fleet.RunOutcome) {
		end := t.now()
		t.add("fleet.run."+o.Name, parent, end-o.WallSeconds, end)
		t.mu.Lock()
		t.fleetWalls = append(t.fleetWalls, o.WallSeconds)
		t.mu.Unlock()
	}
}

// duration sums the durations of closed spans with the given name.
func (t *tracer) duration(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.EndS >= 0 {
			s += sp.EndS - sp.StartS
		}
	}
	return s
}

// finish closes any open span and returns the spans with self times.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for i := range t.spans {
		if t.spans[i].EndS < 0 {
			t.spans[i].EndS = now
		}
	}
	return withSelfTimes(t.spans)
}

// withSelfTimes fills each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (the fused pipeline's simulator batches and sweep windows run
// concurrently), so the covered part is the union of their intervals.
func withSelfTimes(spans []span) []span {
	children := make(map[int][][2]float64)
	for _, sp := range spans {
		if sp.Parent > 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.StartS, sp.EndS})
		}
	}
	out := append([]span(nil), spans...)
	for i := range out {
		sp := &out[i]
		sp.SelfS = (sp.EndS - sp.StartS) - covered(children[sp.ID], sp.StartS, sp.EndS)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total float64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
