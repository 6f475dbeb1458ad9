package sched

import (
	"slices"
	"testing"
	"time"

	"dctraffic/internal/cosmos"
	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/scope"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// testRig builds a small cluster with modest data sizes so tests run fast.
func testRig(seed uint64) (*Cluster, *netsim.Network, *eventlog.Log) {
	top := topology.MustNew(topology.SmallConfig())
	net := netsim.New(top, netsim.Options{})
	log := &eventlog.Log{}
	store := cosmos.NewStore(top, cosmos.Config{ReplicationFactor: 3, ExtentBytes: 64 << 20}, stats.NewRNG(seed).Fork("store"))
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumDatasets = 4
	cfg.DatasetMedian = 512 << 20
	cfg.DatasetP90 = 2 << 30
	cfg.BatchInputMedian = 256 << 20
	cfg.BatchInputP90 = 1 << 30
	cfg.InteractiveInputMedian = 64 << 20
	cfg.InteractiveInputP90 = 128 << 20
	cfg.IngestBytes = 128 << 20
	cl := NewCluster(net, store, log, cfg)
	return cl, net, log
}

type flowCounter struct {
	byKind map[netsim.FlowKind]int
	total  int
}

func (f *flowCounter) FlowStarted(fl *netsim.Flow) {
	if f.byKind == nil {
		f.byKind = map[netsim.FlowKind]int{}
	}
	f.byKind[fl.Tag.Kind]++
	f.total++
}
func (f *flowCounter) FlowEnded(*netsim.Flow) {}

func TestSingleJobCompletes(t *testing.T) {
	cl, net, log := testRig(1)
	fc := &flowCounter{}
	net.AddObserver(fc)
	spec := scope.FilterAggregateJob("test", "dataset-00", 256<<20, 0.5, 4)
	j, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Hour)
	if !j.Done() {
		t.Fatal("job did not finish within an hour of simulated time")
	}
	if j.Killed {
		t.Fatal("job was killed")
	}
	if log.CountType(eventlog.JobCompleted) != 1 {
		t.Fatal("missing JobCompleted record")
	}
	// All four phases should have started and completed.
	if got := log.CountType(eventlog.PhaseCompleted); got != 4 {
		t.Fatalf("PhaseCompleted count = %d, want 4", got)
	}
	// The job must have produced shuffle and control traffic, and output
	// replication.
	if fc.byKind[netsim.KindShuffle] == 0 {
		t.Fatal("no shuffle flows — scatter-gather missing")
	}
	if fc.byKind[netsim.KindControl] == 0 {
		t.Fatal("no control flows")
	}
	if fc.byKind[netsim.KindReplicate] == 0 {
		t.Fatal("no replication flows for job output")
	}
	if j.Duration() <= 0 {
		t.Fatal("job duration not recorded")
	}
}

func TestSubmitUnknownDataset(t *testing.T) {
	cl, _, _ := testRig(2)
	if _, err := cl.Submit(scope.FilterAggregateJob("x", "nope", 1<<20, 0.5, 1)); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestVerticesDontExceedConnCap(t *testing.T) {
	cl, net, _ := testRig(3)
	spec := scope.FilterAggregateJob("cap", "dataset-00", 512<<20, 1.0, 6)
	if _, err := cl.Submit(spec); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Hour)
	if got := cl.MaxConcurrentPulls(); got > cl.Config().MaxConnsPerVertex {
		t.Fatalf("a vertex opened %d simultaneous pulls, cap is %d", got, cl.Config().MaxConnsPerVertex)
	}
	if cl.MaxConcurrentPulls() == 0 {
		t.Fatal("no pulls recorded")
	}
}

func TestWorkSeeksBandwidthLocality(t *testing.T) {
	cl, net, _ := testRig(4)
	for i := 0; i < 6; i++ {
		spec := scope.FilterAggregateJob("loc", "dataset-00", 256<<20, 0.8, 4)
		if _, err := cl.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(2 * time.Hour)
	local, rack, vlan, remote := cl.ReadLocality()
	near := local + rack + vlan
	if near == 0 {
		t.Fatal("no reads recorded")
	}
	// The locality-preferring scheduler must keep most reads near the
	// data (the work-seeks-bandwidth pattern).
	frac := float64(near) / float64(near+remote)
	if frac < 0.5 {
		t.Fatalf("only %.2f of reads are local/rack/VLAN; placement is not seeking bandwidth", frac)
	}
}

func TestJobKilledWhenReadsAlwaysFail(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	net := netsim.New(top, netsim.Options{})
	log := &eventlog.Log{}
	store := cosmos.NewStore(top, cosmos.Config{ReplicationFactor: 3, ExtentBytes: 64 << 20}, stats.NewRNG(7))
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.NumDatasets = 1
	cfg.DatasetMedian = 256 << 20
	cfg.DatasetP90 = 512 << 20
	cfg.ReadFailBase = 1.0 // every read fails
	cfg.MaxReadRetries = 1
	cl := NewCluster(net, store, log, cfg)
	j, err := cl.Submit(scope.FilterAggregateJob("doomed", "dataset-00", 128<<20, 0.5, 2))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Hour)
	if !j.Killed {
		t.Fatal("job should have been killed")
	}
	if log.CountType(eventlog.JobKilled) != 1 {
		t.Fatal("missing JobKilled record")
	}
	// Failed read attempts must be logged for Figure 8 analysis.
	failures := 0
	for _, r := range log.Reads() {
		if r.Failed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no failed read attempts logged")
	}
	// No core leak: all cores free once everything drains.
	for s, busy := range cl.coresBusy {
		if busy != 0 {
			t.Fatalf("server %d still holds %d cores", s, busy)
		}
	}
}

func TestWorkloadRun(t *testing.T) {
	cl, net, log := testRig(5)
	dur := 30 * time.Minute
	cl.Start(dur)
	net.Run(dur + 30*time.Minute) // drain
	if len(cl.Jobs()) == 0 {
		t.Fatal("no jobs arrived in 30 minutes")
	}
	done := 0
	for _, j := range cl.Jobs() {
		if j.Done() {
			done++
		}
	}
	if done == 0 {
		t.Fatal("no job finished")
	}
	if log.CountType(eventlog.JobSubmitted) != len(cl.Jobs()) {
		t.Fatal("submission records mismatch")
	}
	if net.FlowsCompleted() == 0 {
		t.Fatal("workload generated no traffic")
	}
	// Membership records exist for the tomography job prior.
	if len(log.Membership()) == 0 {
		t.Fatal("no job membership records")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() (int64, []int) {
		cl, net, log := testRig(42)
		cl.Start(20 * time.Minute)
		net.Run(40 * time.Minute)
		var counts []int
		for e := eventlog.JobSubmitted; e <= eventlog.EvacuationCompleted; e++ {
			counts = append(counts, log.CountType(e))
		}
		return net.FlowsStarted(), counts
	}
	f1, r1 := run()
	f2, r2 := run()
	if f1 != f2 || !slices.Equal(r1, r2) {
		t.Fatalf("workload not deterministic: (%d,%v) vs (%d,%v)", f1, r1, f2, r2)
	}
}

func TestEvacuationGeneratesTraffic(t *testing.T) {
	cl, net, log := testRig(6)
	fc := &flowCounter{}
	net.AddObserver(fc)
	net.Schedule(0, func() { cl.runEvacuation() })
	net.Run(time.Hour)
	if fc.byKind[netsim.KindEvacuate] == 0 {
		t.Fatal("evacuation produced no flows")
	}
	if log.CountType(eventlog.EvacuationStarted) != 1 || log.CountType(eventlog.EvacuationCompleted) != 1 {
		t.Fatal("evacuation lifecycle not logged")
	}
}

func TestIngestCreatesDataset(t *testing.T) {
	cl, net, _ := testRig(8)
	fc := &flowCounter{}
	net.AddObserver(fc)
	net.Schedule(0, func() { cl.runIngest(0) })
	net.Run(2 * time.Hour)
	if fc.byKind[netsim.KindIngest] == 0 {
		t.Fatal("ingest produced no flows")
	}
	if cl.store.Dataset("ingest-0") == nil {
		t.Fatal("ingest dataset not registered")
	}
}

func TestArrivalRateDiurnalAndWeekend(t *testing.T) {
	cl, _, _ := testRig(9)
	peak := cl.arrivalRate(12 * time.Hour) // mid-day, day 0
	trough := cl.arrivalRate(0)            // midnight
	if peak <= trough {
		t.Fatalf("no diurnal swing: peak %v <= trough %v", peak, trough)
	}
	weekday := cl.arrivalRate(2*24*time.Hour + 12*time.Hour) // day 2
	weekend := cl.arrivalRate(5*24*time.Hour + 12*time.Hour) // day 5
	if weekend >= weekday {
		t.Fatalf("no weekend dip: weekend %v >= weekday %v", weekend, weekday)
	}
}

func TestJoinJobCompletes(t *testing.T) {
	cl, net, _ := testRig(10)
	j, err := cl.Submit(scope.JoinJob("jn", "dataset-01", 256<<20, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Hour)
	if !j.Done() || j.Killed {
		t.Fatalf("join job done=%v killed=%v", j.Done(), j.Killed)
	}
}

func TestInteractiveJobFast(t *testing.T) {
	cl, net, _ := testRig(11)
	j, err := cl.Submit(scope.InteractiveJob("i", "dataset-00", 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Hour)
	if !j.Done() || j.Killed {
		t.Fatal("interactive job failed")
	}
	if j.Duration() > 10*time.Minute {
		t.Fatalf("interactive job took %v", j.Duration())
	}
}

func TestCoreAccountingNeverNegative(t *testing.T) {
	cl, net, _ := testRig(12)
	cl.Start(10 * time.Minute)
	net.Run(30 * time.Minute)
	for s, busy := range cl.coresBusy {
		if busy < 0 {
			t.Fatalf("server %d has negative busy cores", s)
		}
		if busy > cl.Config().CoresPerServer {
			t.Fatalf("server %d exceeds core count: %d", s, busy)
		}
	}
}
