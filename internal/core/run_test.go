package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"dctraffic/internal/obs"
)

// shortCfg is the shared shortened configuration for the Run API tests.
func shortCfg() RunConfig {
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	return cfg
}

func digestOf(t *testing.T, rr *RunResult) string {
	t.Helper()
	h := sha256.New()
	for _, r := range rr.Records() {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %v\n",
			r.ID, r.Src, r.Dst, r.SrcPort, r.DstPort, r.Start, r.End, r.Bytes, r.Tag)
	}
	j, err := mustAnalyze(t, rr).JSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(j)
	return hex.EncodeToString(h.Sum(nil))
}

// The obs contract: attaching or detaching the observability layer must
// not change simulation results. Same seed, observer on (with an
// aggressive progress interval, to stress batch slicing) vs observer
// off — bit-identical trace digests.
func TestObserverOnOffDigestIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two shortened simulations")
	}
	on, err := Run(context.Background(), shortCfg(),
		WithProgressInterval(13*time.Second), // deliberately odd batch size
		WithProgress(func(Progress) {}))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(context.Background(), shortCfg(), WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics != nil {
		t.Fatal("WithObserver(nil) should disable metrics collection")
	}
	if on.Metrics == nil {
		t.Fatal("default Run should collect metrics")
	}
	if dOn, dOff := digestOf(t, on), digestOf(t, off); dOn != dOff {
		t.Fatalf("observer changed simulation results:\n  on:  %s\n  off: %s", dOn, dOff)
	}
}

func TestRunMetricsSnapshot(t *testing.T) {
	var sink bytes.Buffer
	rr, err := Run(context.Background(), shortCfg(), WithMetricsSink(&sink))
	if err != nil {
		t.Fatal(err)
	}
	snap := rr.Metrics
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if err := snap.Require("netsim.", "cosmos.", "scope.", "trace.", "runtime."); err != nil {
		t.Fatal(err)
	}
	// Cross-check against ground truth the result exposes directly.
	if got, want := snap.Value("trace.records_total"), float64(len(rr.Records())); got != want {
		t.Fatalf("trace.records_total = %v, want %v", got, want)
	}
	if got, want := snap.Value("netsim.bytes_total"), rr.Net.TotalBytes(); got != want {
		t.Fatalf("netsim.bytes_total = %v, want %v", got, want)
	}
	if snap.Value("netsim.events_total") <= 0 || snap.Value("scope.jobs_submitted_total") <= 0 {
		t.Fatal("hot-path counters did not move")
	}
	if len(snap.Phases) < 2 {
		t.Fatalf("want build+simulate phases, got %v", snap.Phases)
	}
	// The sink got the same snapshot, as parseable JSON.
	parsed, err := obs.ReadSnapshot(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Series) != len(snap.Series) {
		t.Fatalf("sink snapshot has %d series, result has %d", len(parsed.Series), len(snap.Series))
	}
}

func TestRunProgressReports(t *testing.T) {
	var reports []Progress
	cfg := shortCfg()
	_, err := Run(context.Background(), cfg,
		WithProgressInterval(10*time.Minute),
		WithProgress(func(p Progress) { reports = append(reports, p) }))
	if err != nil {
		t.Fatal(err)
	}
	// 30 simulated minutes at one report per 10 → exactly 3.
	if len(reports) != 3 {
		t.Fatalf("got %d progress reports, want 3", len(reports))
	}
	last := reports[len(reports)-1]
	if last.SimTime != cfg.Duration+cfg.DrainTime || last.Frac() != 1 {
		t.Fatalf("final report not at end of run: %+v", last)
	}
	if last.Events == 0 || last.FlowsCompleted == 0 || last.HeapBytes == 0 {
		t.Fatalf("final report missing counters: %+v", last)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].SimTime <= reports[i-1].SimTime {
			t.Fatal("progress sim time not monotone")
		}
	}
}

// Cancellation must surface promptly (within one batch) and wrap
// context.Canceled so callers can errors.Is it.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	rr, err := Run(ctx, shortCfg(),
		WithProgressInterval(time.Minute),
		WithProgress(func(Progress) {
			calls++
			if calls == 2 {
				cancel()
			}
		}))
	if rr != nil || err == nil {
		t.Fatal("canceled run should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if calls != 2 {
		t.Fatalf("run kept going after cancel: %d progress calls", calls)
	}
}

// An already-canceled context returns before any simulation work.
func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, shortCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunMetricsSinkError(t *testing.T) {
	_, err := Run(context.Background(), shortCfg(), WithMetricsSink(failWriter{}))
	if err == nil || !errors.Is(err, errSink) {
		t.Fatalf("sink failure not surfaced: %v", err)
	}
}

var errSink = errors.New("sink broken")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

// A run bins the inter-switch links alone, two-phase and fused: they
// are the only counters congestion detection and tomography read, and
// server-level traffic comes from the record log.
func TestRunBinsOnlyInterSwitchLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("two shortened simulations")
	}
	cfg := shortCfg()
	rr, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused, _, err := RunAnalyze(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rr   *RunResult
	}{{"Run", rr}, {"RunAnalyze", fused}} {
		name, rr := c.name, c.rr
		st := rr.Net.Stats()
		want := rr.Top.InterSwitchLinks()
		slices.Sort(want)
		if got := st.TrackedLinks(); !slices.Equal(got, want) {
			t.Fatalf("%s: tracked links %v, want the inter-switch links %v", name, got, want)
		}
		binned := 0
		for _, l := range rr.Top.Links() {
			if len(st.Bytes(l.ID)) == 0 {
				continue
			}
			if !slices.Contains(want, l.ID) {
				t.Fatalf("%s: link %s holds bins but is not inter-switch", name, l.Name)
			}
			binned++
		}
		if binned == 0 {
			t.Fatalf("%s: no inter-switch link holds bins", name)
		}
	}
}
