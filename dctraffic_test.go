package dctraffic

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak int
	rep, err := AnalyzeRun(context.Background(), rr,
		WithAnalyzeProgress(func(p StreamProgress) { peak = p.PeakBuffered }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fig9.Summary.NumFlows == 0 {
		t.Fatal("no flows analyzed")
	}
	if rep.Text() == "" {
		t.Fatal("empty report text")
	}
	if peak <= 0 {
		t.Fatal("no streaming progress delivered")
	}
}

func TestFacadeModel(t *testing.T) {
	p := PaperModelFor(ClusterShape{Racks: 8, ServersPerRack: 10, ExternalHosts: 4})
	rng := NewRNG(1)
	m := p.GenerateTM(rng)
	if m.Total() <= 0 {
		t.Fatal("model generated no traffic")
	}
	recs := p.GenerateFlows(rng, m, DefaultFlowShape(), 0, 1)
	if len(recs) == 0 {
		t.Fatal("no flows from model")
	}
	if HeatASCII(m, 20) == "" {
		t.Fatal("no heat map")
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	records := []FlowRecord{
		{ID: 1, Src: 0, Dst: 1, Bytes: 10, Start: 0, End: time.Second},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil || len(back) != 1 || back[0] != records[0] {
		t.Fatalf("round trip failed: %v %v", back, err)
	}
	m := ServerMatrix(back, 4, 0, time.Second)
	if m.At(0, 1) != 10 {
		t.Fatal("ServerMatrix lost bytes")
	}
}
