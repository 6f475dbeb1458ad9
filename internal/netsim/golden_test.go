package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// digestObserver hashes every flow lifecycle fact determinism covers:
// identity, endpoints, ports, timing, cancellation and the exact float
// bits of the bytes moved. Two runs agree on the digest iff their traces
// are bit-identical.
type digestObserver struct {
	h     [32]byte
	count int
}

func (d *digestObserver) FlowStarted(f *Flow) {}
func (d *digestObserver) FlowEnded(f *Flow) {
	s := fmt.Sprintf("%x|%d %d %d %d %d %d %d %v %016x\n",
		d.h, f.ID, f.Src, f.Dst, f.SrcPort, f.DstPort, f.Start, f.End,
		f.Canceled, math.Float64bits(f.Transferred()))
	d.h = sha256.Sum256([]byte(s))
	d.count++
}

// synthConfig is one randomized small-cluster workload variant.
type synthConfig struct {
	seed      uint64
	batched   bool // 10 ms MinRecomputeInterval (day-scale configuration)
	rackLocal bool // 80% same-rack pairs (work-seeks-bandwidth shape)
	evacuate  bool // periodic CancelWhere storms with bulk restarts
}

// runSynthetic drives a closed-loop random workload: an initial wave of
// flows whose completion callbacks chain replacement flows (so RNG draws
// happen in event order, exercising the canonical merge order), plus
// optional evacuation storms. Returns the trace digest.
func runSynthetic(t *testing.T, sc synthConfig, opts Options) (string, int) {
	t.Helper()
	top := topology.MustNew(topology.SmallConfig())
	if sc.batched {
		opts.MinRecomputeInterval = 10 * time.Millisecond
	}
	n := New(top, opts)
	d := &digestObserver{}
	n.AddObserver(d)
	r := stats.NewRNG(sc.seed)
	hosts := top.NumHosts()
	servers := top.NumServers()
	spr := top.Config().ServersPerRack

	pair := func() (topology.ServerID, topology.ServerID) {
		if sc.rackLocal && r.Float64() < 0.8 {
			rack := r.IntN(top.NumRacks())
			src := topology.ServerID(rack*spr + r.IntN(spr))
			dst := topology.ServerID(rack*spr + r.IntN(spr))
			return src, dst
		}
		return topology.ServerID(r.IntN(hosts)), topology.ServerID(r.IntN(hosts))
	}
	var chain func(depth, job int) func(*Flow)
	chain = func(depth, job int) func(*Flow) {
		if depth <= 0 {
			return nil
		}
		return func(f *Flow) {
			if f.Canceled {
				return
			}
			src, dst := pair()
			n.StartFlow(src, dst, int64(1+r.IntN(4_000_000)), FlowTag{Job: job}, chain(depth-1, job))
		}
	}
	const initial = 400
	for i := 0; i < initial; i++ {
		i := i
		n.After(Time(r.IntN(300))*time.Millisecond, func() {
			src, dst := pair()
			n.StartFlow(src, dst, int64(1+r.IntN(6_000_000)), FlowTag{Job: i % 7}, chain(2, i%7))
		})
	}
	if sc.evacuate {
		// Periodic evacuation: reap one job's transfers, then bulk-restart
		// them as evacuation traffic off the victim server.
		for k := 0; k < 8; k++ {
			k := k
			n.After(Time(150+100*k)*time.Millisecond, func() {
				job := k % 7
				n.CancelWhere(func(f *Flow) bool { return f.Tag.Job == job && f.Tag.Kind != KindEvacuate })
				victim := topology.ServerID(r.IntN(servers))
				for i := 0; i < 40; i++ {
					dst := topology.ServerID(r.IntN(servers))
					n.StartFlow(victim, dst, int64(1+r.IntN(2_000_000)),
						FlowTag{Job: job, Kind: KindEvacuate}, chain(1, job))
				}
			})
		}
	}
	n.RunAll()
	if got := d.count; got < initial {
		t.Fatalf("workload too small: %d flows ended", got)
	}
	return hex.EncodeToString(d.h[:]), d.count
}

// syntheticGoldens pins the trace digest and ended-flow count of the 20
// runSynthetic variants in TestSyntheticTraceGoldens, by seed.
var syntheticGoldens = [20]struct {
	digest string
	flows  int
}{
	{"cd0704e925a40ebe7d04a618420e432b99df77962ad4462cbab8968a4fae9ccb", 1200},
	{"ef5fefbe97db4abfb68e5e33fb6a6f23e654a02ba1cf6607bbdd23c7e2d86869", 1200},
	{"58bc42503d2ad7edf571a72773c842aab336eebdc561a88493b8637e23e75d24", 1200},
	{"9019ddf74a536ca6c646690b7fc08a322a3aa46c9ccdcf70aa51f45a0520f8e5", 1749},
	{"b3c6b06adbfd21b88e6ba261ee03d60ed95fbf1bacb2b7495928af9b1dd0d95e", 1200},
	{"efe04058974ea800f2e60133371c6e2ab1bb343ebe89dac9bfa98c39d9b5db8f", 1200},
	{"1205591dbcb38732d1a83b91fac8ad9d126099a2fbf6867c21a7b7d5cb480293", 1200},
	{"6c4ec9062ec3c56403bbb8fef04ade851da25236f43d3730d49d5bf52eb1117f", 1730},
	{"acea058b6134d81624cc999403fa50b876caed6f03b684cf7691ba1fecdf565d", 1200},
	{"964bd96b676612bf5473078175e7979d960fddac73c7f7ee1b3fd9e2217bd06f", 1200},
	{"331ace2c12f58f4496f440be31d390c268c17609fe91fb78a2425cac80966fd4", 1200},
	{"b364dbd6c4cd6007a1c498bcd25e2794060a0496b0f44d7da7c3858398d8fd40", 1466},
	{"1ce5fdf9f052c0dc2f0de99938f7e0136cdfd7692514cdf42da0a1348888c4f1", 1200},
	{"f80496825fd6a8a422c023e4eea3b16ec80e9e14c6e57b4befc5e1a30272c54a", 1200},
	{"4472da1df1462e58b8a4e72ee915963947d2b420fc7cf535feda49342e050370", 1200},
	{"70a20b6d5ee0a648d88cdbe7c7252bd35d92a0e4111ed0a9d2bbd6b7aa910317", 1727},
	{"82bdcd8d7ff71c6d8364411b301589ff7beb8479c555ce9555ed9b44a9a31ed0", 1717},
	{"1247abe078b8ca0256958dce6f8c62de4c7bc36bc07e5853611a3e5ba7830385", 1481},
	{"9c51810c432159d492c229bad6c09729d64e84c3d039378a64d81ffc219ffd4d", 1730},
	{"181c5ea8e720686019fc4f8cf100c44114509fc2df46be749357cfef510c9cc6", 1738},
}

// TestSyntheticTraceGoldens pins the simulator absolutely: 20 random
// small-cluster workloads — churny, rack-local, evacuation-heavy, exact
// and batched — must reproduce recorded trace digests bit for bit, so a
// change that moves every code path at once cannot pass unnoticed.
// The digests hash exact float bits; they are recorded for linux/amd64
// only, because the Go compiler may fuse multiply-adds on other
// architectures, which changes rounding.
func TestSyntheticTraceGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on linux/amd64; %s/%s may fuse multiply-adds, which changes float rounding",
			runtime.GOOS, runtime.GOARCH)
	}
	for i, want := range syntheticGoldens {
		seed := uint64(i + 1)
		sc := synthConfig{
			seed:      seed,
			batched:   seed%2 == 0,
			rackLocal: seed%3 != 0,
			evacuate:  seed%4 == 0 || seed >= 16, // ≥ 9 evacuation-heavy variants
		}
		got, n := runSynthetic(t, sc, Options{})
		if got != want.digest || n != want.flows {
			t.Errorf("seed %d (batched=%v rackLocal=%v evacuate=%v): digest %s over %d flows, want %s over %d",
				seed, sc.batched, sc.rackLocal, sc.evacuate, got, n, want.digest, want.flows)
		}
	}
}
