// Package scope models the high-level job layer of the paper's cluster:
// programmers write Scope scripts that the compiler turns into Dryad-style
// workflows — DAGs of phases (Extract, Partition, Aggregate, Combine,
// Output), each phase consisting of vertices that run the same computation
// over different parts of the input stream.
//
// The phase semantics drive the traffic patterns the paper reports:
//
//   - Extract parses raw data blocks; the job manager keeps it close to the
//     data, so it reads over the network only when local cores are busy.
//   - Partition can pipeline with Extract (it starts dividing output as
//     soon as an extract vertex finishes) and is co-located, so it adds no
//     network traffic of its own.
//   - Aggregate is a barrier: every aggregate vertex pulls its bucket from
//     every partition vertex — the scatter-gather pattern.
//   - Combine implements joins, pulling from two upstream phases.
//   - Output writes results into the replicated block store.
//
// This package handles job structure and data-volume accounting only; the
// scheduler (internal/sched) decides placement and generates flows.
package scope

import "fmt"

// PhaseType classifies a workflow phase.
type PhaseType uint8

// The phase types of the paper's workflows.
const (
	Extract PhaseType = iota
	Partition
	Aggregate
	Combine
	Output
)

// String returns the phase-type name.
func (p PhaseType) String() string {
	switch p {
	case Extract:
		return "extract"
	case Partition:
		return "partition"
	case Aggregate:
		return "aggregate"
	case Combine:
		return "combine"
	case Output:
		return "output"
	}
	return "unknown"
}

// StageSpec describes one stage of a job script.
type StageSpec struct {
	Type PhaseType

	// Selectivity is output bytes per input byte (e.g. 0.05 for a
	// filtering extract, 1.0 for a pass-through partition).
	Selectivity float64

	// Fanout fixes the number of vertices; 0 derives it from data volume
	// (one vertex per input extent for Extract, one per TargetVertexBytes
	// otherwise).
	Fanout int

	// Deps lists upstream stage indices. Nil means the previous stage
	// (or the job input for stage 0); an explicitly-empty slice means the
	// stage reads the job input directly (a second extract leg). Combine
	// stages typically name two dependencies.
	Deps []int
}

// JobSpec is a compiled-from-script job description.
type JobSpec struct {
	Name   string
	Input  string // dataset name in the block store
	Stages []StageSpec

	// InputBytes is the logical size of the input dataset.
	InputBytes int64

	// ExtentBytes is the chunking unit used to derive Extract fanout.
	ExtentBytes int64

	// TargetVertexBytes sizes non-extract vertices; default 1 GB.
	TargetVertexBytes int64
}

// Vertex is one unit of parallel work within a phase.
type Vertex struct {
	Phase       *Phase
	Index       int
	InputBytes  int64
	OutputBytes int64
}

// Phase is one compiled stage with its vertices and dependencies.
type Phase struct {
	Index       int
	Type        PhaseType
	Deps        []*Phase
	Vertices    []*Vertex
	InputBytes  int64
	OutputBytes int64

	// Pipelined reports whether the phase consumes upstream output
	// incrementally (true for Partition over Extract) rather than
	// requiring a barrier (Aggregate, Combine).
	Pipelined bool
}

// Workflow is a compiled job: a DAG of phases.
type Workflow struct {
	Spec   *JobSpec
	Phases []*Phase
}

// Compile expands a job spec into a workflow, deriving per-phase and
// per-vertex data volumes from selectivities.
func Compile(spec *JobSpec) (*Workflow, error) {
	if len(spec.Stages) == 0 {
		return nil, fmt.Errorf("scope: job %q has no stages", spec.Name)
	}
	if spec.InputBytes <= 0 {
		return nil, fmt.Errorf("scope: job %q has no input bytes", spec.Name)
	}
	if spec.Stages[0].Type != Extract {
		return nil, fmt.Errorf("scope: job %q must start with an extract stage", spec.Name)
	}
	extent := spec.ExtentBytes
	if extent <= 0 {
		extent = 256 << 20
	}
	target := spec.TargetVertexBytes
	if target <= 0 {
		target = 1 << 30
	}
	w := &Workflow{Spec: spec}
	for i, st := range spec.Stages {
		ph := &Phase{Index: i, Type: st.Type}
		deps := st.Deps
		if deps == nil && i > 0 {
			deps = []int{i - 1}
		}
		for _, d := range deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("scope: job %q stage %d has invalid dep %d", spec.Name, i, d)
			}
			ph.Deps = append(ph.Deps, w.Phases[d])
		}
		// Input volume: phases with no upstream dependency (stage 0, or a
		// stage declared with explicitly-empty Deps, e.g. the second leg
		// of a join) read the job input; others consume dep outputs.
		if len(ph.Deps) == 0 {
			ph.InputBytes = spec.InputBytes
		} else {
			for _, d := range ph.Deps {
				ph.InputBytes += d.OutputBytes
			}
		}
		sel := st.Selectivity
		if sel <= 0 {
			sel = 1
		}
		ph.OutputBytes = int64(float64(ph.InputBytes) * sel)
		// Vertex count.
		nv := st.Fanout
		if nv <= 0 {
			switch st.Type {
			case Extract:
				nv = int((ph.InputBytes + extent - 1) / extent)
			default:
				nv = int((ph.InputBytes + target - 1) / target)
			}
		}
		if nv < 1 {
			nv = 1
		}
		// Partition pipelines with an Extract dep and mirrors its fanout
		// (partition vertices are co-located with extract vertices).
		if st.Type == Partition && len(ph.Deps) == 1 && ph.Deps[0].Type == Extract {
			ph.Pipelined = true
			if st.Fanout <= 0 {
				nv = len(ph.Deps[0].Vertices)
			}
		}
		// Split volumes across vertices, remainder on the first.
		inEach := ph.InputBytes / int64(nv)
		outEach := ph.OutputBytes / int64(nv)
		for v := 0; v < nv; v++ {
			vx := &Vertex{Phase: ph, Index: v, InputBytes: inEach, OutputBytes: outEach}
			if v == 0 {
				vx.InputBytes += ph.InputBytes - inEach*int64(nv)
				vx.OutputBytes += ph.OutputBytes - outEach*int64(nv)
			}
			ph.Vertices = append(ph.Vertices, vx)
		}
		w.Phases = append(w.Phases, ph)
	}
	return w, nil
}

// NumVertices reports the total vertex count across phases.
func (w *Workflow) NumVertices() int {
	n := 0
	for _, p := range w.Phases {
		n += len(p.Vertices)
	}
	return n
}

// FinalOutputBytes reports the bytes produced by the last phase.
func (w *Workflow) FinalOutputBytes() int64 {
	return w.Phases[len(w.Phases)-1].OutputBytes
}

// FilterAggregateJob is the canonical map-reduce-style script: extract
// filters the input, partition buckets it, aggregate reduces it, output
// persists the result. selectivity is the extract's output/input ratio;
// reducers fixes the aggregate fanout (0 derives it from volume).
func FilterAggregateJob(name, input string, inputBytes int64, selectivity float64, reducers int) *JobSpec {
	return &JobSpec{
		Name:       name,
		Input:      input,
		InputBytes: inputBytes,
		Stages: []StageSpec{
			{Type: Extract, Selectivity: selectivity},
			{Type: Partition, Selectivity: 1},
			{Type: Aggregate, Selectivity: 0.2, Fanout: reducers},
			{Type: Output, Selectivity: 1, Fanout: reducers},
		},
	}
}

// JoinJob models a two-input join: two extract+partition legs feeding a
// combine, then an output. The second input is modeled as a fraction of
// the first (the store tracks only one dataset name; the join's network
// behaviour depends only on volumes).
func JoinJob(name, input string, inputBytes int64, rightFraction float64) *JobSpec {
	if rightFraction <= 0 {
		rightFraction = 0.3
	}
	return &JobSpec{
		Name:       name,
		Input:      input,
		InputBytes: inputBytes,
		Stages: []StageSpec{
			{Type: Extract, Selectivity: 0.4},                                // 0: left leg
			{Type: Partition, Selectivity: 1},                                // 1
			{Type: Extract, Selectivity: 0.4 * rightFraction, Deps: []int{}}, // 2: right leg (reads input again)
			{Type: Partition, Selectivity: 1, Deps: []int{2}},                // 3
			{Type: Combine, Selectivity: 0.5, Deps: []int{1, 3}},             // 4: the join
			{Type: Output, Selectivity: 1},                                   // 5
		},
	}
}

// MultiRoundJob chains several partition→aggregate rounds (iterative
// computations like PageRank-style index builds): each round shuffles the
// previous round's output again. rounds must be >= 1.
func MultiRoundJob(name, input string, inputBytes int64, rounds int) *JobSpec {
	if rounds < 1 {
		rounds = 1
	}
	spec := &JobSpec{
		Name:       name,
		Input:      input,
		InputBytes: inputBytes,
		Stages: []StageSpec{
			{Type: Extract, Selectivity: 0.6},
		},
	}
	for r := 0; r < rounds; r++ {
		spec.Stages = append(spec.Stages,
			StageSpec{Type: Partition, Selectivity: 1},
			StageSpec{Type: Aggregate, Selectivity: 0.8},
		)
	}
	spec.Stages = append(spec.Stages, StageSpec{Type: Output, Selectivity: 1})
	return spec
}

// InteractiveJob is a short exploratory script over a small slice of data:
// a single extract and aggregate with tiny output.
func InteractiveJob(name, input string, inputBytes int64) *JobSpec {
	return &JobSpec{
		Name:       name,
		Input:      input,
		InputBytes: inputBytes,
		Stages: []StageSpec{
			{Type: Extract, Selectivity: 0.1},
			{Type: Partition, Selectivity: 1},
			{Type: Aggregate, Selectivity: 0.05, Fanout: 1},
		},
	}
}
