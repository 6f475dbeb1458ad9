package congestion

import (
	"math"
	"testing"
	"time"

	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// saturate runs flows through a small network and returns it with 1s
// utilization bins recorded.
// saturate returns a network that bins every server uplink as well as
// the inter-switch links (the ToR uplinks among them): the tests below
// detect episodes on both kinds.
func saturate(t *testing.T) (*netsim.Network, *topology.Topology) {
	t.Helper()
	top := topology.MustNew(topology.SmallConfig())
	links := top.InterSwitchLinks()
	for s := 0; s < top.NumHosts(); s++ {
		links = append(links, top.ServerUplink(topology.ServerID(s)))
	}
	net := netsim.New(top, netsim.Options{StatsBinSize: time.Second, StatsLinks: links})
	return net, top
}

func TestDetectSaturatedLink(t *testing.T) {
	net, top := saturate(t)
	// Saturate server 0's uplink for ~5 s.
	net.StartFlow(0, 1, 625_000_000, netsim.FlowTag{}, nil) // 5s at 1 Gbps
	net.RunAll()
	link := top.ServerUplink(0)
	eps := Detect(net.Stats(), top, 0.7, []topology.LinkID{link})
	if len(eps) != 1 {
		t.Fatalf("episodes = %v, want 1", eps)
	}
	if d := eps[0].Duration(); d < 4*time.Second || d > 6*time.Second {
		t.Fatalf("episode duration %v, want ~5s", d)
	}
}

func TestDetectBelowThreshold(t *testing.T) {
	net, top := saturate(t)
	// Two flows share the uplink: each 0.5 Gbps, the link runs at 100%;
	// but a single 0.5 Gbps-capable flow (bottlenecked elsewhere) is not
	// congestion. Use a ToR-bottlenecked set: 5 flows through ToR 0 to
	// rack 2 — each server uplink carries only 0.5 Gbps (50% util).
	src := top.RackServers(0)
	dst := top.RackServers(2)
	for i := 0; i < 5; i++ {
		net.StartFlow(src[i], dst[i], 250_000_000, netsim.FlowTag{}, nil)
	}
	net.RunAll()
	// Server uplinks at 50%: below the 70% threshold.
	up := top.ServerUplink(src[0])
	if !net.Stats().Tracked(up) {
		t.Fatal("server uplink not binned: the no-episode check below would be vacuous")
	}
	eps := Detect(net.Stats(), top, 0.7, []topology.LinkID{up})
	if len(eps) != 0 {
		t.Fatalf("expected no episodes at 50%% util, got %v", eps)
	}
	// The ToR uplink ran at 100%: congested.
	eps = Detect(net.Stats(), top, 0.7, []topology.LinkID{top.TorUplink(0)})
	if len(eps) != 1 {
		t.Fatalf("ToR uplink episodes = %v", eps)
	}
}

func TestDetectDefaultLinksAndThreshold(t *testing.T) {
	net, top := saturate(t)
	src := top.RackServers(0)
	dst := top.RackServers(2)
	for i := 0; i < 5; i++ {
		net.StartFlow(src[i], dst[i], 312_500_000, netsim.FlowTag{}, nil)
	}
	net.RunAll()
	eps := Detect(net.Stats(), top, 0, nil) // defaults
	found := false
	for _, e := range eps {
		if e.Link == top.TorUplink(0) {
			found = true
		}
	}
	if !found {
		t.Fatal("default inter-switch scan missed the hot ToR uplink")
	}
}

func TestSummarizeAndFrac(t *testing.T) {
	eps := []Episode{
		{Link: 1, Start: 0, End: 5 * time.Second},
		{Link: 1, Start: 10 * time.Second, End: 30 * time.Second},
		{Link: 2, Start: 0, End: 2 * time.Second},
	}
	links := []topology.LinkID{1, 2, 3}
	if f := FracLinksWithEpisodeAtLeast(eps, links, 10*time.Second); math.Abs(f-1.0/3) > 1e-12 {
		t.Fatalf("frac >= 10s = %v, want 1/3", f)
	}
	if f := FracLinksWithEpisodeAtLeast(eps, links, time.Second); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("frac >= 1s = %v, want 2/3", f)
	}
	if FracLinksWithEpisodeAtLeast(eps, nil, 0) != 0 {
		t.Fatal("no links should give 0")
	}
}

func TestDurationStats(t *testing.T) {
	eps := []Episode{
		{Link: 1, Start: 0, End: 2 * time.Second},
		{Link: 1, Start: 0, End: 15 * time.Second},
		{Link: 2, Start: 0, End: 400 * time.Second},
	}
	cdf, over10, longest := DurationStats(eps)
	if cdf.N() != 3 || over10 != 2 || longest != 400 {
		t.Fatalf("stats = %d %d %v", cdf.N(), over10, longest)
	}
}

func TestEpisodeIndexOverlap(t *testing.T) {
	idx := NewEpisodeIndex([]Episode{
		{Link: 5, Start: 10 * time.Second, End: 20 * time.Second},
		{Link: 5, Start: 40 * time.Second, End: 50 * time.Second},
	})
	cases := []struct {
		from, to time.Duration
		want     bool
	}{
		{0, 5 * time.Second, false},
		{0, 10 * time.Second, false}, // half-open
		{0, 11 * time.Second, true},
		{20 * time.Second, 40 * time.Second, false},
		{45 * time.Second, 60 * time.Second, true},
		{50 * time.Second, 60 * time.Second, false},
	}
	for _, c := range cases {
		if got := idx.Overlaps(5, c.from, c.to); got != c.want {
			t.Errorf("overlaps(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if idx.Overlaps(6, 0, time.Hour) {
		t.Fatal("unknown link should not overlap")
	}
}

func TestOverlapRateCDFs(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	link := top.ServerUplink(0)
	eps := []Episode{{Link: link, Start: 0, End: 10 * time.Second}}
	records := []trace.FlowRecord{
		{ID: 1, Src: 0, Dst: 1, Bytes: 1_250_000, Start: time.Second, End: 2 * time.Second},       // on hot link
		{ID: 2, Src: 5, Dst: 6, Bytes: 1_250_000, Start: time.Second, End: 2 * time.Second},       // elsewhere
		{ID: 3, Src: 0, Dst: 1, Bytes: 1_250_000, Start: 20 * time.Second, End: 21 * time.Second}, // after episode
	}
	j := NewRecordJoin(NewEpisodeIndex(eps), top, 0)
	for i := range records {
		j.Join(&records[i])
	}
	if j.All.N() != 3 || j.Overlap.N() != 1 {
		t.Fatalf("overlap=%d all=%d", j.Overlap.N(), j.All.N())
	}
	if !j.congested(1) || j.congested(2) || j.congested(3) {
		t.Fatal("only flow 1 crossed the hot link during its episode")
	}
}

func TestReadFailureImpact(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	link := top.ServerUplink(0)
	day := 24 * time.Hour
	eps := []Episode{{Link: link, Start: 0, End: time.Hour}}
	records := []trace.FlowRecord{
		{ID: 1, Src: 0, Dst: 15, Start: time.Minute, End: 2 * time.Minute, Bytes: 1},
		{ID: 2, Src: 5, Dst: 25, Start: time.Minute, End: 2 * time.Minute, Bytes: 1},
	}
	j := NewRecordJoin(NewEpisodeIndex(eps), top, 0)
	tally := NewReadTally(j, day, 2)
	// Congested attempts: 2 of 4 fail. Clear attempts: 1 of 4 fails.
	// Half of each class arrives before its flow joins and waits.
	add := func(from, to int) {
		for i := from; i < to; i++ {
			tally.Add(eventlog.ReadAttempt{Flow: 1, Start: time.Minute, End: 2 * time.Minute, Failed: i < 2})
			tally.Add(eventlog.ReadAttempt{Flow: 2, Start: time.Minute, End: 2 * time.Minute, Failed: i < 1})
		}
	}
	add(0, 2)
	// Day 2: only clear attempts, counted as they arrive. A read of a
	// flow that never joins waits until Impact and counts as clear.
	tally.Add(eventlog.ReadAttempt{Flow: -1, Start: day + time.Hour, End: day + 2*time.Hour, Failed: false})
	tally.Add(eventlog.ReadAttempt{Flow: 9, Start: day + time.Hour, End: day + 2*time.Hour, Failed: true})
	if got := tally.Waiting(); got != 5 {
		t.Fatalf("%d reads waiting before any flow joined, want 5", got)
	}
	for i := range records {
		j.Join(&records[i])
	}
	add(2, 4)
	// Outside the two periods: not counted.
	tally.Add(eventlog.ReadAttempt{Flow: -1, Start: 2 * day, End: 2*day + time.Hour})
	impacts := tally.Impact()
	if len(impacts) != 2 {
		t.Fatalf("impacts = %v", impacts)
	}
	d0 := impacts[0]
	if d0.CongestedReads != 4 || d0.ClearReads != 4 {
		t.Fatalf("day 0 classes: %+v", d0)
	}
	if math.Abs(d0.PFailCongested-0.5) > 1e-12 || math.Abs(d0.PFailClear-0.25) > 1e-12 {
		t.Fatalf("day 0 probabilities: %+v", d0)
	}
	if math.Abs(d0.IncreasePct-100) > 1e-9 {
		t.Fatalf("day 0 increase = %v, want 100%%", d0.IncreasePct)
	}
	if d1 := impacts[1]; d1.CongestedReads != 0 || d1.ClearReads != 2 || d1.PFailClear != 0.5 || d1.IncreasePct != 0 {
		t.Fatalf("day 1 should hold two clear reads, one failed: %+v", d1)
	}
}

func TestConcurrencySeries(t *testing.T) {
	eps := []Episode{
		{Link: 1, Start: 0, End: 2 * time.Second},
		{Link: 2, Start: time.Second, End: 3 * time.Second},
	}
	s := ConcurrencySeries(eps, time.Second, 4*time.Second)
	want := []int{1, 2, 1, 0}
	for i, w := range want {
		if s[i] != w {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
}

func TestAuditIncast(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	ext := topology.ServerID(top.NumServers())
	records := []trace.FlowRecord{
		{Src: 0, Dst: 1},   // same rack
		{Src: 0, Dst: 15},  // same VLAN (racks 0,1)
		{Src: 0, Dst: 75},  // far
		{Src: ext, Dst: 0}, // external: excluded
	}
	a := AuditIncast(records, top, nil, time.Second, 10*time.Second, 2)
	if a.MaxSimultaneousConnections != 2 {
		t.Fatal("conn cap not carried")
	}
	if math.Abs(a.FracFlowsWithinRack-1.0/3) > 1e-12 {
		t.Fatalf("rack frac = %v", a.FracFlowsWithinRack)
	}
	if math.Abs(a.FracFlowsWithinVLAN-2.0/3) > 1e-12 {
		t.Fatalf("vlan frac = %v", a.FracFlowsWithinVLAN)
	}
}

func TestSynchronizedFanIn(t *testing.T) {
	mk := func(src, dst topology.ServerID, at time.Duration) trace.FlowRecord {
		return trace.FlowRecord{Src: src, Dst: dst, Start: at, End: at + time.Second, Bytes: 1}
	}
	records := []trace.FlowRecord{
		// Three distinct senders hit server 9 within 1 ms.
		mk(1, 9, 0),
		mk(2, 9, 200*time.Microsecond),
		mk(3, 9, 900*time.Microsecond),
		// A fourth arrives much later.
		mk(4, 9, time.Second),
		// Repeat sender within the window does not raise distinct count.
		mk(1, 9, 500*time.Microsecond),
		// Loopback ignored.
		mk(5, 5, 0),
	}
	maxFan, hist := SynchronizedFanIn(records, time.Millisecond)
	if maxFan != 3 {
		t.Fatalf("max fan-in = %d, want 3", maxFan)
	}
	if len(hist) == 0 || hist[1] == 0 {
		t.Fatalf("histogram missing: %v", hist)
	}
	// Empty input.
	if m, h := SynchronizedFanIn(nil, time.Millisecond); m != 0 || len(h) != 0 {
		t.Fatal("empty input should yield zero fan-in")
	}
}

func TestAttribute(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	// Flows with known paths; IDs matter for PathK reconstruction on
	// multipath, but this is the tree so any ID works.
	mkr := func(id int64, src, dst topology.ServerID, bytes int64, start, end time.Duration, kind netsim.FlowKind) trace.FlowRecord {
		return trace.FlowRecord{ID: netsim.FlowID(id), Src: src, Dst: dst, Bytes: bytes,
			Start: start, End: end, Tag: netsim.FlowTag{Kind: kind}}
	}
	link := top.ServerUplink(0)
	eps := []Episode{{Link: link, Start: 0, End: 10 * time.Second}}
	records := []trace.FlowRecord{
		// Shuffle fully inside the episode on the hot link: all 1000 bytes.
		mkr(1, 0, 15, 1000, 0, 10*time.Second, netsim.KindShuffle),
		// Evacuate overlapping half the episode: 500 of 1000 bytes.
		mkr(2, 0, 25, 1000, 5*time.Second, 15*time.Second, netsim.KindEvacuate),
		// Control flow elsewhere: never on the hot link.
		mkr(3, 5, 6, 1000, 0, 10*time.Second, netsim.KindControl),
	}
	j := NewRecordJoin(NewEpisodeIndex(eps), top, 0)
	for i := range records {
		j.Join(&records[i])
	}
	a := j.Attribution()
	if a.TotalBytes != 1500 {
		t.Fatalf("total attributed = %v, want 1500", a.TotalBytes)
	}
	if a.BytesOnCongested[netsim.KindShuffle] != 1000 {
		t.Fatalf("shuffle bytes = %v", a.BytesOnCongested[netsim.KindShuffle])
	}
	if a.BytesOnCongested[netsim.KindEvacuate] != 500 {
		t.Fatalf("evacuate bytes = %v", a.BytesOnCongested[netsim.KindEvacuate])
	}
	if _, present := a.Share[netsim.KindControl]; present {
		t.Fatal("uninvolved kind should not appear")
	}
	ranked := a.Ranked()
	if len(ranked) != 2 || ranked[0] != netsim.KindShuffle {
		t.Fatalf("ranking = %v", ranked)
	}
	// Empty inputs.
	empty := NewRecordJoin(NewEpisodeIndex(nil), top, 0).Attribution()
	if empty.TotalBytes != 0 || len(empty.Ranked()) != 0 {
		t.Fatal("empty attribution should be zero")
	}
}

func TestCorrelate(t *testing.T) {
	eps := []Episode{
		// Three short episodes overlapping at t=1s on different links.
		{Link: 1, Start: 0, End: 2 * time.Second},
		{Link: 2, Start: 0, End: 2 * time.Second},
		{Link: 3, Start: 0, End: 2 * time.Second},
		// One long, isolated episode.
		{Link: 4, Start: 100 * time.Second, End: 200 * time.Second},
	}
	cs := Correlate(eps)
	if cs.ShortEpisodes != 3 || cs.LongEpisodes != 1 {
		t.Fatalf("split = %d short / %d long", cs.ShortEpisodes, cs.LongEpisodes)
	}
	if cs.MeanCoHotShort != 2 {
		t.Fatalf("short co-hot = %v, want 2", cs.MeanCoHotShort)
	}
	if cs.MeanCoHotLong != 0 {
		t.Fatalf("long co-hot = %v, want 0", cs.MeanCoHotLong)
	}
	if got := Correlate(nil); got.ShortEpisodes != 0 {
		t.Fatal("empty episodes should be zero")
	}
}
