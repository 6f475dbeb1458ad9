package core

import (
	"context"
	"testing"

	"dctraffic/internal/obs"
	"dctraffic/internal/trace"
)

// reportDigest hashes the headline JSON plus the full rendered Report —
// every figure slice and map (fmt prints maps key-sorted, so the
// rendering is deterministic). The one nested pointer, Fig2.TM, is
// hashed entry by entry and nil'd out of the fmt pass so no addresses
// leak into the digest.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	d, err := ReportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeContextCanceled(t *testing.T) {
	rr, _ := smallRun(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeRun(ctx, rr); err == nil {
		t.Fatal("canceled context: want error")
	}
}

// The pipeline's observability: per-stage phases and counters land in
// the caller's registry, and attaching one does not change results.
func TestAnalyzeObserverPhases(t *testing.T) {
	rr, rep := smallRun(t)
	reg := obs.NewRegistry()
	obsRep, err := AnalyzeRun(context.Background(), rr, WithAnalysisObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(t, obsRep), reportDigest(t, rep); got != want {
		t.Fatal("attaching an observer changed the report")
	}
	snap := reg.Snapshot()
	phases := map[string]bool{}
	for _, p := range snap.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"analyze.index", "analyze.figures", "analyze.compress_wait", "analyze.congestion"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %+v", want, snap.Phases)
		}
	}
	var recordsTotal, tasksTotal float64
	for _, s := range snap.Series {
		switch s.Name {
		case "analyze.records_total":
			recordsTotal = s.Value
		case "analyze.tasks_total":
			tasksTotal = s.Value
		}
	}
	if recordsTotal <= 0 || tasksTotal <= 0 {
		t.Fatalf("pipeline counters missing: records=%v tasks=%v", recordsTotal, tasksTotal)
	}
	want := float64(min(len(rr.Records()), trace.CompressionSample))
	if got := snap.Value("trace.compress_records_total"); got != want {
		t.Fatalf("trace.compress_records_total = %v, want %v", got, want)
	}
}
