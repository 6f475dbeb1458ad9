// Package model is the paper's deliverable for network designers: a
// parametric generative model of datacenter traffic matching the
// macroscopic characterization of §4.1 (Figures 2–4), usable to simulate
// "such traffic" without running a full cluster simulation.
//
// The model captures:
//
//   - Work-seeks-bandwidth: per-server within-rack correspondence is
//     bimodal — a server either talks to almost all of its rack or to a
//     small subset (Figure 4 left) — and within-rack pairs exchange more
//     bytes than cross-rack pairs (Figure 3).
//   - Scatter-gather: a few servers per window push to (or pull from)
//     servers spread across many racks (the rows/columns of Figure 2).
//   - Sparsity: most server pairs exchange nothing — the paper reports
//     ≈89% of same-rack pairs and ≈99.5% of cross-rack pairs are silent.
//   - External ingest/egress at the matrix fringe.
//
// Parameters can be fitted from any measured server-level TM (Fit), so the
// model doubles as a compact summary of a trace.
package model

import (
	"math"
	"sort"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// Params is the generative model. All probabilities are per window.
type Params struct {
	Racks          int
	ServersPerRack int
	ExternalHosts  int

	// Within-rack correspondence mixture (Figure 4 left).
	PChattyWithinRack float64 // fraction of servers talking to ~all rack peers
	ChattyWithinFrac  float64 // peer fraction for chatty servers
	QuietWithinFrac   float64 // peer fraction for the rest

	// Across-rack correspondence (Figure 4 right).
	PSilentAcrossRack float64 // servers with no cross-rack peers
	AcrossFracLo      float64 // active servers talk to Uniform[lo, hi]
	AcrossFracHi      float64 // of out-of-rack servers

	// Entry volumes (Figure 3): non-zero pair bytes per window.
	WithinBytes stats.Lognormal
	AcrossBytes stats.Lognormal

	// Scatter-gather events (Figure 2's rows and columns).
	ScattersPerWindow float64 // Poisson mean
	ScatterFanoutFrac float64 // fraction of cluster servers touched
	ScatterBytes      stats.Lognormal

	// External traffic (Figure 2's far corner).
	ExternalPairsPerWindow float64
	ExternalBytes          stats.Lognormal

	// Window is the TM timescale the parameters describe.
	Window netsim.Time
}

// ClusterShape names the dimensions of a simulated cluster — the three
// numbers that parameterize the generative model. A named struct
// replaces the old positional-int signature (racks, servers, hosts are
// all ints; call sites were unreadable and transposable).
type ClusterShape struct {
	Racks          int
	ServersPerRack int
	ExternalHosts  int
}

// Servers reports the cluster server count.
func (s ClusterShape) Servers() int { return s.Racks * s.ServersPerRack }

// PaperDefaultsFor returns parameters hand-tuned to reproduce the paper's
// reported statistics at the given cluster shape: ~89%/99.5% silent pairs,
// median ≈2 within-rack and ≈4 cross-rack correspondents, non-zero entries
// spanning loge(Bytes) ∈ [4, 20] with within-rack entries larger.
func PaperDefaultsFor(shape ClusterShape) Params {
	racks, serversPerRack, externalHosts := shape.Racks, shape.ServersPerRack, shape.ExternalHosts
	return Params{
		Racks:          racks,
		ServersPerRack: serversPerRack,
		ExternalHosts:  externalHosts,

		PChattyWithinRack: 0.06,
		ChattyWithinFrac:  0.92,
		QuietWithinFrac:   0.075,

		PSilentAcrossRack: 0.45,
		AcrossFracLo:      0.003,
		AcrossFracHi:      0.03,

		WithinBytes: stats.Lognormal{Mu: 12.5, Sigma: 2.6},
		AcrossBytes: stats.Lognormal{Mu: 10.5, Sigma: 2.4},

		ScattersPerWindow: float64(racks*serversPerRack) * 0.005,
		ScatterFanoutFrac: 0.15,
		ScatterBytes:      stats.Lognormal{Mu: 11, Sigma: 1.5},

		ExternalPairsPerWindow: float64(externalHosts) * 1.5,
		ExternalBytes:          stats.Lognormal{Mu: 13, Sigma: 1.8},

		Window: 10e9, // 10 s
	}
}

// numServers is the cluster server count.
func (p Params) numServers() int { return p.Racks * p.ServersPerRack }

// scatterEvent is one scatter-gather hub for a window.
type scatterEvent struct {
	hub  int
	push bool
}

// sampleActive draws the window's cross-rack-active server set.
func (p Params) sampleActive(rng *stats.RNG) []int {
	var active []int
	for s := 0; s < p.numServers(); s++ {
		if !rng.Bool(p.PSilentAcrossRack) {
			active = append(active, s)
		}
	}
	return active
}

// sampleHubs draws the window's scatter-gather events over the active set.
func (p Params) sampleHubs(rng *stats.RNG, active []int) []scatterEvent {
	events := stats.Poisson(rng, p.ScattersPerWindow)
	out := make([]scatterEvent, 0, events)
	for e := 0; e < events && len(active) > 0; e++ {
		out = append(out, scatterEvent{
			hub:  active[rng.IntN(len(active))],
			push: rng.Bool(0.5),
		})
	}
	return out
}

// GenerateTM draws one server-level traffic matrix (hosts = servers +
// externals) for a window, with fresh activity each call. For correlated
// sequences of windows use NewSeriesGen.
func (p Params) GenerateTM(rng *stats.RNG) *tm.Matrix {
	active := p.sampleActive(rng)
	return p.generateWith(rng, active, p.sampleHubs(rng, active))
}

// generateWith draws one TM for a given active set and hub list.
func (p Params) generateWith(rng *stats.RNG, active []int, hubs []scatterEvent) *tm.Matrix {
	n := p.numServers()
	m := tm.NewMatrix(n + p.ExternalHosts)
	perRack := p.ServersPerRack

	// Within-rack structure.
	for s := 0; s < n; s++ {
		rackBase := (s / perRack) * perRack
		frac := p.QuietWithinFrac
		if rng.Bool(p.PChattyWithinRack) {
			frac = p.ChattyWithinFrac
		}
		for o := 0; o < perRack; o++ {
			d := rackBase + o
			if d == s || !rng.Bool(frac) {
				continue
			}
			m.Add(s, d, p.WithinBytes.Sample(rng))
		}
	}

	// Across-rack structure over the active set (Figure 4's zero-spike:
	// silent servers neither initiate nor receive this window).
	out := n - perRack
	if out > 0 && len(active) > 1 {
		for _, s := range active {
			frac := p.AcrossFracLo + rng.Float64()*(p.AcrossFracHi-p.AcrossFracLo)
			k := int(frac * float64(out))
			if k < 1 {
				k = 1
			}
			rackBase := (s / perRack) * perRack
			for i := 0; i < k; i++ {
				d := active[rng.IntN(len(active))]
				if d == s || (d >= rackBase && d < rackBase+perRack) {
					continue // own rack; thinning keeps E[k] right
				}
				m.Add(s, d, p.AcrossBytes.Sample(rng))
			}
		}
	}

	// Scatter-gather rows/columns over the active set.
	fan := int(p.ScatterFanoutFrac * float64(n))
	if fan < 2 {
		fan = 2
	}
	for _, ev := range hubs {
		if len(active) < 2 {
			break
		}
		for i := 0; i < fan; i++ {
			peer := active[rng.IntN(len(active))]
			if peer == ev.hub {
				continue
			}
			b := p.ScatterBytes.Sample(rng)
			if ev.push {
				m.Add(ev.hub, peer, b)
			} else {
				m.Add(peer, ev.hub, b)
			}
		}
	}

	// External fringe.
	pairs := stats.Poisson(rng, p.ExternalPairsPerWindow)
	for e := 0; e < pairs && p.ExternalHosts > 0; e++ {
		ext := n + rng.IntN(p.ExternalHosts)
		srv := rng.IntN(n)
		b := p.ExternalBytes.Sample(rng)
		if rng.Bool(0.5) {
			m.Add(ext, srv, b) // ingest
		} else {
			m.Add(srv, ext, b) // egress
		}
	}
	return m
}

// FlowShape controls how GenerateFlows decomposes TM entries into flows.
type FlowShape struct {
	// FlowBytes sizes individual flows (chunking); default bounded Pareto
	// 64 KB .. 256 MB with α=1.2 — most flows small, bytes in the tail.
	FlowBytes stats.Dist
	// RateBps draws a flow's throughput; duration = bytes·8/rate, capped
	// at the window. Default lognormal around 50 Mbps.
	RateBps stats.Dist
}

// DefaultFlowShape returns the §4.3-flavored defaults.
func DefaultFlowShape() FlowShape {
	return FlowShape{
		FlowBytes: stats.Pareto{Xm: 64 << 10, Alpha: 1.2, Max: 256 << 20},
		RateBps:   stats.Lognormal{Mu: math.Log(50e6), Sigma: 1.2},
	}
}

// GenerateFlows expands a window TM into flow records: each pair's bytes
// are cut into chunk-sized flows with random starts inside the window.
// Flow IDs are assigned sequentially from firstID.
func (p Params) GenerateFlows(rng *stats.RNG, m *tm.Matrix, shape FlowShape, windowStart netsim.Time, firstID int64) []trace.FlowRecord {
	if shape.FlowBytes == nil {
		shape = DefaultFlowShape()
	}
	var out []trace.FlowRecord
	id := firstID
	var port uint16 = 1024
	m.ForEach(func(src, dst int, bytes float64) {
		for remaining := bytes; remaining > 0.5; {
			fb := shape.FlowBytes.Sample(rng)
			if fb > remaining {
				fb = remaining
			}
			remaining -= fb
			rate := shape.RateBps.Sample(rng)
			dur := netsim.Time(fb * 8 / rate * 1e9)
			if dur > p.Window {
				dur = p.Window
			}
			if dur < 1 {
				dur = 1
			}
			startOff := netsim.Time(rng.Int64N(int64(p.Window - dur + 1)))
			port++
			if port < 1024 {
				port = 1024
			}
			out = append(out, trace.FlowRecord{
				ID:      netsim.FlowID(id),
				Src:     topology.ServerID(src),
				Dst:     topology.ServerID(dst),
				SrcPort: port,
				DstPort: 443,
				Start:   windowStart + startOff,
				End:     windowStart + startOff + dur,
				Bytes:   int64(fb),
			})
			id++
		}
	})
	return out
}

// Fit estimates model parameters from a measured server-level TM over one
// window. The scatter and external components are estimated from the
// pattern summary; entry distributions from log-moments.
func Fit(m *tm.Matrix, top *topology.Topology, window netsim.Time) Params {
	cfg := top.Config()
	p := Params{
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		ExternalHosts:  cfg.ExternalHosts,
		Window:         window,
	}
	es := tm.ComputeEntryStats(m, top)
	p.WithinBytes = fitLognormal(es.WithinRack, stats.Lognormal{Mu: 12, Sigma: 2.5})
	p.AcrossBytes = fitLognormal(es.AcrossRack, stats.Lognormal{Mu: 10, Sigma: 2.5})

	cs := tm.ComputeCorrespondents(m, top)
	var chatty, quiet []float64
	silentAcross := 0
	var acrossActive []float64
	for i := range cs.FracWithin {
		if cs.FracWithin[i] > 0.5 {
			chatty = append(chatty, cs.FracWithin[i])
		} else {
			quiet = append(quiet, cs.FracWithin[i])
		}
		if cs.FracAcross[i] == 0 {
			silentAcross++
		} else {
			acrossActive = append(acrossActive, cs.FracAcross[i])
		}
	}
	n := top.NumServers()
	p.PChattyWithinRack = float64(len(chatty)) / float64(n)
	p.ChattyWithinFrac = defaultIfZero(stats.Mean(chatty), 0.9)
	p.QuietWithinFrac = defaultIfZero(stats.Mean(quiet), 0.05)
	p.PSilentAcrossRack = float64(silentAcross) / float64(n)
	p.AcrossFracLo = defaultIfZero(stats.Percentile(acrossActive, 10), 0.005)
	p.AcrossFracHi = defaultIfZero(stats.Percentile(acrossActive, 90), 0.05)

	ps := tm.SummarizePatterns(m, top)
	p.ScattersPerWindow = float64(ps.ScatterGatherRows) * 0.25 // hubs persist across windows
	p.ScatterFanoutFrac = 0.25
	p.ScatterBytes = p.AcrossBytes
	// External pair rate from the fringe volume and its mean entry size.
	extMean := p.AcrossBytes.Mean()
	if extMean > 0 {
		p.ExternalPairsPerWindow = ps.ExternalFraction * m.Total() / extMean
	}
	p.ExternalBytes = p.AcrossBytes
	p.calibrateVolume(m.Total())
	return p
}

// ExpectedTotal approximates the mean bytes one generated window carries.
func (p Params) ExpectedTotal() float64 {
	n := float64(p.numServers())
	perRack := float64(p.ServersPerRack)
	withinActive := p.PChattyWithinRack*p.ChattyWithinFrac + (1-p.PChattyWithinRack)*p.QuietWithinFrac
	within := n * withinActive * (perRack - 1) * p.WithinBytes.Mean()
	meanFrac := (p.AcrossFracLo + p.AcrossFracHi) / 2
	across := n * (1 - p.PSilentAcrossRack) * meanFrac * (n - perRack) * p.AcrossBytes.Mean()
	fan := p.ScatterFanoutFrac * n
	scatter := p.ScattersPerWindow * fan * p.ScatterBytes.Mean()
	external := p.ExternalPairsPerWindow * p.ExternalBytes.Mean()
	return within + across + scatter + external
}

// calibrateVolume shifts the byte distributions so the expected generated
// volume matches the target — fitting entry sizes and event rates
// independently would otherwise double-count scatter volume (scatter
// entries were also counted in the entry-size histograms).
func (p *Params) calibrateVolume(target float64) {
	if target <= 0 {
		return
	}
	expected := p.ExpectedTotal()
	if expected <= 0 {
		return
	}
	shift := math.Log(target / expected)
	p.WithinBytes.Mu += shift
	p.AcrossBytes.Mu += shift
	p.ScatterBytes.Mu += shift
	p.ExternalBytes.Mu += shift
}

// fitLognormal estimates (Mu, Sigma) from positive samples by log-moments,
// falling back to fallback for degenerate inputs.
func fitLognormal(samples []float64, fallback stats.Lognormal) stats.Lognormal {
	var logs []float64
	for _, v := range samples {
		if v > 0 {
			logs = append(logs, math.Log(v))
		}
	}
	if len(logs) < 2 {
		return fallback
	}
	sigma := stats.StdDev(logs)
	if sigma <= 0 {
		sigma = 0.1
	}
	return stats.Lognormal{Mu: stats.Mean(logs), Sigma: sigma}
}

func defaultIfZero(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// SeriesGen produces a correlated sequence of window TMs reproducing
// Figure 10's behaviour: the TM changes substantially window to window
// (participants churn), yet consecutive windows share most of their
// conversations because jobs span many windows. Each step keeps a
// conversation (pair entry) with probability 1−ActiveChurn, jittering its
// volume, and replaces the churned share with fresh activity.
type SeriesGen struct {
	p    Params
	rng  *stats.RNG
	prev *tm.Matrix

	// ActiveChurn is the fraction of conversations replaced per window
	// (default 0.3); the median normalized change grows with it.
	ActiveChurn float64
	// VolumeJitter is the lognormal sigma applied to surviving
	// conversations' volumes each window (default 0.3).
	VolumeJitter float64
}

// NewSeriesGen starts a correlated TM sequence.
func (p Params) NewSeriesGen(rng *stats.RNG) *SeriesGen {
	return &SeriesGen{p: p, rng: rng, ActiveChurn: 0.3, VolumeJitter: 0.3}
}

// entry is a flattened TM cell, used for deterministic iteration.
type entry struct {
	src, dst int
	bytes    float64
}

// sortedEntries flattens a TM in (src, dst) order so per-entry coin flips
// are reproducible (map iteration order is not).
func sortedEntries(m *tm.Matrix) []entry {
	var out []entry
	m.ForEach(func(s, d int, b float64) {
		out = append(out, entry{s, d, b})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// Next draws the next window's TM.
func (g *SeriesGen) Next() *tm.Matrix {
	if g.prev == nil {
		g.prev = g.p.GenerateTM(g.rng)
		return g.prev
	}
	next := tm.NewMatrix(g.prev.N())
	jitter := stats.Lognormal{Mu: 0, Sigma: g.VolumeJitter}
	for _, e := range sortedEntries(g.prev) {
		if g.rng.Bool(g.ActiveChurn) {
			continue // conversation ended
		}
		next.Add(e.src, e.dst, e.bytes*jitter.Sample(g.rng))
	}
	// Fresh activity replaces the churned share.
	fresh := g.p.GenerateTM(g.rng)
	for _, e := range sortedEntries(fresh) {
		if g.rng.Bool(g.ActiveChurn) {
			next.Add(e.src, e.dst, e.bytes)
		}
	}
	g.prev = next
	return next
}
