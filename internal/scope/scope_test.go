package scope

import (
	"testing"
	"testing/quick"
)

func TestCompileFilterAggregate(t *testing.T) {
	spec := FilterAggregateJob("j1", "logs", 4<<30, 0.25, 8)
	w, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(w.Phases))
	}
	ext := w.Phases[0]
	if ext.Type != Extract || ext.InputBytes != 4<<30 {
		t.Fatalf("extract phase wrong: %+v", ext)
	}
	// 4 GB / 256 MB extents = 16 extract vertices.
	if len(ext.Vertices) != 16 {
		t.Fatalf("extract vertices = %d, want 16", len(ext.Vertices))
	}
	if ext.OutputBytes != 1<<30 {
		t.Fatalf("extract output = %d, want 1 GiB", ext.OutputBytes)
	}
	part := w.Phases[1]
	if !part.Pipelined {
		t.Fatal("partition over extract should be pipelined")
	}
	if len(part.Vertices) != len(ext.Vertices) {
		t.Fatalf("partition vertices = %d, want %d (co-located)", len(part.Vertices), len(ext.Vertices))
	}
	agg := w.Phases[2]
	if agg.Pipelined {
		t.Fatal("aggregate must be a barrier")
	}
	if len(agg.Vertices) != 8 {
		t.Fatalf("aggregate vertices = %d, want 8", len(agg.Vertices))
	}
	if agg.InputBytes != part.OutputBytes {
		t.Fatalf("aggregate input %d != partition output %d", agg.InputBytes, part.OutputBytes)
	}
	out := w.Phases[3]
	if out.Type != Output || out.InputBytes != agg.OutputBytes {
		t.Fatalf("output phase wrong: %+v", out)
	}
}

func TestCompileVolumeConservation(t *testing.T) {
	spec := FilterAggregateJob("j", "d", 10<<30, 0.5, 0)
	w, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Phases {
		var in, out int64
		for _, v := range p.Vertices {
			in += v.InputBytes
			out += v.OutputBytes
		}
		if in != p.InputBytes {
			t.Fatalf("phase %d vertex input sum %d != %d", p.Index, in, p.InputBytes)
		}
		if out != p.OutputBytes {
			t.Fatalf("phase %d vertex output sum %d != %d", p.Index, out, p.OutputBytes)
		}
	}
}

func TestCompileJoin(t *testing.T) {
	spec := JoinJob("join", "sales", 8<<30, 0.25)
	w, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(w.Phases))
	}
	rightExtract := w.Phases[2]
	if rightExtract.Type != Extract || rightExtract.InputBytes != 8<<30 {
		t.Fatalf("right leg should read the job input: %+v", rightExtract)
	}
	combine := w.Phases[4]
	if combine.Type != Combine || len(combine.Deps) != 2 {
		t.Fatalf("combine deps = %d, want 2", len(combine.Deps))
	}
	wantIn := w.Phases[1].OutputBytes + w.Phases[3].OutputBytes
	if combine.InputBytes != wantIn {
		t.Fatalf("combine input %d, want %d", combine.InputBytes, wantIn)
	}
}

func TestCompileInteractive(t *testing.T) {
	w, err := Compile(InteractiveJob("i", "d", 100<<20))
	if err != nil {
		t.Fatal(err)
	}
	if n := w.NumVertices(); n < 2 || n > 4 {
		t.Fatalf("interactive job has %d vertices, want a handful", n)
	}
	if last := w.Phases[len(w.Phases)-1]; len(last.Vertices) != 1 {
		t.Fatalf("interactive aggregate fanout %d, want 1", len(last.Vertices))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []*JobSpec{
		{Name: "empty", InputBytes: 1},
		{Name: "noinput", Stages: []StageSpec{{Type: Extract}}},
		{Name: "notextract", InputBytes: 1, Stages: []StageSpec{{Type: Aggregate}}},
		{Name: "baddep", InputBytes: 1, Stages: []StageSpec{
			{Type: Extract}, {Type: Aggregate, Deps: []int{5}},
		}},
		{Name: "selfdep", InputBytes: 1, Stages: []StageSpec{
			{Type: Extract}, {Type: Aggregate, Deps: []int{1}},
		}},
	}
	for _, spec := range cases {
		if _, err := Compile(spec); err == nil {
			t.Errorf("job %q should fail to compile", spec.Name)
		}
	}
}

func TestPhaseTypeString(t *testing.T) {
	for _, p := range []PhaseType{Extract, Partition, Aggregate, Combine, Output} {
		if p.String() == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
	}
	if PhaseType(42).String() != "unknown" {
		t.Fatal("unknown phase type should say so")
	}
}

func TestFinalOutputBytes(t *testing.T) {
	w, err := Compile(FilterAggregateJob("j", "d", 1<<30, 0.5, 2))
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB → extract 0.5 → partition 1.0 → aggregate 0.2 → output 1.0
	gib := float64(int64(1 << 30))
	want := int64(gib * 0.5 * 0.2)
	got := w.FinalOutputBytes()
	// Integer division across vertices may shave a few bytes.
	if got < want-10 || got > want+10 {
		t.Fatalf("final output %d, want ~%d", got, want)
	}
}

// Property: compiled volumes are non-negative and phase inputs equal the
// sum of dep outputs for arbitrary chained selectivities.
func TestCompileChainProperty(t *testing.T) {
	f := func(s1, s2 uint8, input uint32) bool {
		sel1 := 0.01 + float64(s1)/255.0
		sel2 := 0.01 + float64(s2)/255.0
		in := int64(input)%(8<<30) + 1<<20
		spec := &JobSpec{
			Name: "p", Input: "d", InputBytes: in,
			Stages: []StageSpec{
				{Type: Extract, Selectivity: sel1},
				{Type: Partition, Selectivity: 1},
				{Type: Aggregate, Selectivity: sel2},
			},
		}
		w, err := Compile(spec)
		if err != nil {
			return false
		}
		for _, p := range w.Phases {
			if p.InputBytes < 0 || p.OutputBytes < 0 || len(p.Vertices) < 1 {
				return false
			}
			if p.Index > 0 {
				var dep int64
				for _, d := range p.Deps {
					dep += d.OutputBytes
				}
				if p.InputBytes != dep {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRoundJob(t *testing.T) {
	spec := MultiRoundJob("pr", "links", 4<<30, 3)
	w, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// extract + 3×(partition+aggregate) + output = 8 phases.
	if len(w.Phases) != 8 {
		t.Fatalf("phases = %d, want 8", len(w.Phases))
	}
	aggs := 0
	for _, p := range w.Phases {
		if p.Type == Aggregate {
			aggs++
		}
	}
	if aggs != 3 {
		t.Fatalf("aggregate rounds = %d, want 3", aggs)
	}
	// Later rounds shrink: each aggregate keeps 80%.
	if w.Phases[2].OutputBytes <= w.Phases[4].OutputBytes {
		t.Fatal("rounds should shrink volume")
	}
	// rounds < 1 clamps.
	if w2, err := Compile(MultiRoundJob("x", "d", 1<<30, 0)); err != nil || len(w2.Phases) != 4 {
		t.Fatalf("clamped rounds: %v phases, err %v", len(w2.Phases), err)
	}
}
