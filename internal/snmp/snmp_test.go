package snmp

import (
	"math"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// constantRateNet runs one 1 Gbps flow for dur and returns the network.
func constantRateNet(t *testing.T, dur time.Duration) (*netsim.Network, topology.LinkID) {
	t.Helper()
	top := topology.MustNew(topology.SmallConfig())
	link := top.ServerUplink(0)
	net := netsim.New(top, netsim.Options{StatsBinSize: time.Second, StatsLinks: []topology.LinkID{link}})
	bytes := int64(125e6 * dur.Seconds()) // 1 Gbps
	net.StartFlow(0, 1, bytes, netsim.FlowTag{}, nil)
	net.RunAll()
	return net, link
}

func TestCollectAndReconstruct(t *testing.T) {
	net, link := constantRateNet(t, 30*time.Minute)
	cfg := Config{Interval: 5 * time.Minute, JitterFrac: 0}
	series := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute, cfg, stats.NewRNG(1))
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	s := series[0]
	if len(s.Polls) != 6 {
		t.Fatalf("polls = %d, want 6", len(s.Polls))
	}
	// Counter grows at 125 MB/s: poll 1 at 5 min = 37.5 GB.
	want := 125e6 * 300
	if got := float64(s.Polls[0].Value); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("first poll = %v, want %v", got, want)
	}
	// Reconstruct a 10-minute window aligned between polls.
	bytes, ok := s.WindowBytes(5*time.Minute, 15*time.Minute, 64)
	if !ok {
		t.Fatal("reconstruction failed")
	}
	want = 125e6 * 600
	if math.Abs(bytes-want)/want > 0.01 {
		t.Fatalf("window bytes %v, want %v", bytes, want)
	}
}

func TestWindowInterpolation(t *testing.T) {
	net, link := constantRateNet(t, 30*time.Minute)
	series := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute,
		Config{Interval: 5 * time.Minute}, stats.NewRNG(2))
	// A window not aligned to poll boundaries: linear interpolation keeps
	// the error small under the (true) constant rate.
	bytes, ok := series[0].WindowBytes(7*time.Minute, 13*time.Minute, 64)
	if !ok {
		t.Fatal("reconstruction failed")
	}
	want := 125e6 * 360
	if math.Abs(bytes-want)/want > 0.02 {
		t.Fatalf("interpolated window %v, want %v", bytes, want)
	}
}

func TestCounterWrap32(t *testing.T) {
	// 1 Gbps wraps a 32-bit octet counter every ~34 s; the unwrapper must
	// still reconstruct correct deltas.
	net, link := constantRateNet(t, 10*time.Minute)
	series := Collect(net.Stats(), []topology.LinkID{link}, 10*time.Minute,
		Config{Interval: 15 * time.Second, CounterBits: 32}, stats.NewRNG(3))
	s := series[0]
	// Raw values must have wrapped (some later poll smaller than an
	// earlier one).
	wrapped := false
	for i := 1; i < len(s.Polls); i++ {
		if s.Polls[i].Value < s.Polls[i-1].Value {
			wrapped = true
		}
	}
	if !wrapped {
		t.Fatal("expected 32-bit counter wrap at 1 Gbps")
	}
	bytes, ok := s.WindowBytes(time.Minute, 4*time.Minute, 32)
	if !ok {
		t.Fatal("reconstruction failed")
	}
	want := 125e6 * 180
	if math.Abs(bytes-want)/want > 0.02 {
		t.Fatalf("unwrapped window %v, want %v", bytes, want)
	}
}

func TestPollLoss(t *testing.T) {
	net, link := constantRateNet(t, 30*time.Minute)
	lossy := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute,
		Config{Interval: time.Minute, LossProb: 0.5}, stats.NewRNG(4))
	full := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute,
		Config{Interval: time.Minute}, stats.NewRNG(4))
	if len(lossy[0].Polls) >= len(full[0].Polls) {
		t.Fatalf("loss dropped nothing: %d vs %d", len(lossy[0].Polls), len(full[0].Polls))
	}
	// Reconstruction still works across gaps.
	if _, ok := lossy[0].WindowBytes(5*time.Minute, 20*time.Minute, 64); !ok {
		t.Fatal("reconstruction should interpolate across lost polls")
	}
}

func TestWindowBeyondPollsFails(t *testing.T) {
	net, link := constantRateNet(t, 10*time.Minute)
	series := Collect(net.Stats(), []topology.LinkID{link}, 10*time.Minute,
		Config{Interval: 5 * time.Minute}, stats.NewRNG(5))
	if _, ok := series[0].WindowBytes(8*time.Minute, 30*time.Minute, 64); ok {
		t.Fatal("window past the last poll must fail, not extrapolate")
	}
	empty := Series{}
	if _, ok := empty.WindowBytes(0, time.Minute, 64); ok {
		t.Fatal("empty series cannot reconstruct")
	}
}

func TestWindowCounts(t *testing.T) {
	net, link := constantRateNet(t, 30*time.Minute)
	series := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute,
		Config{Interval: 5 * time.Minute}, stats.NewRNG(6))
	series = append(series, Series{Link: 999}) // no polls
	counts, missing := WindowCounts(series, 5*time.Minute, 15*time.Minute, 64)
	if len(counts) != 2 || missing != 1 {
		t.Fatalf("counts=%v missing=%d", counts, missing)
	}
	if counts[0] <= 0 || counts[1] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestJitterBounded(t *testing.T) {
	net, link := constantRateNet(t, 30*time.Minute)
	cfg := Config{Interval: 5 * time.Minute, JitterFrac: 0.1}
	series := Collect(net.Stats(), []topology.LinkID{link}, 30*time.Minute, cfg, stats.NewRNG(7))
	for i, p := range series[0].Polls {
		nominal := time.Duration(i+1) * 5 * time.Minute
		d := p.At - nominal
		if d < 0 {
			d = -d
		}
		if d > 30*time.Second+time.Millisecond {
			t.Fatalf("poll %d jitter %v exceeds 10%% of interval", i, d)
		}
	}
}
