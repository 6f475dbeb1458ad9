// Package tomo implements the network-tomography study of §5: estimating
// ToR-to-ToR traffic matrices from link byte counters (the SNMP view)
// and comparing the estimates against ground truth.
//
// Three estimators are provided, mirroring the paper:
//
//   - Tomogravity: a gravity prior (traffic between ToRs proportional to
//     the product of their totals) adjusted by weighted least squares to
//     satisfy the link constraints (Zhang et al. style).
//   - Tomogravity with job metadata: the gravity prior is multiplied by a
//     factor that grows with the number of job instances two ToRs share
//     (§5.3).
//   - Sparsity maximization: the sparsest TM consistent with the link
//     counts. A basic feasible solution of the constraint polytope has at
//     most rank(A) non-zeros, which is what the paper's MILP seeks; we
//     obtain one with a phase-1 simplex (internal/simplex).
//
// Errors are reported as RMSRE over the entries that make up 75% of true
// volume, exactly as the paper defines it.
package tomo

import (
	"fmt"
	"math"
	"sort"

	"dctraffic/internal/det"
	"dctraffic/internal/eventlog"
	"dctraffic/internal/linalg"
	"dctraffic/internal/netsim"
	"dctraffic/internal/simplex"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
)

// Problem holds the routing structure of a ToR-level tomography instance:
// the constraint matrix A over origin-destination rack pairs and the
// mapping between pair indices and rack pairs. Build once per topology
// and reuse across time bins.
type Problem struct {
	top   *topology.Topology
	racks int
	pairs []pair // column index -> (src rack, dst rack)

	a   *linalg.Matrix // rows: inter-switch link counters; cols: pairs
	csc *linalg.CSC    // column index of a, shared by every solver bound to it

	rowOfLink map[topology.LinkID]int
	links     []topology.LinkID // row order
}

type pair struct{ src, dst int }

// NewProblem builds the constraint system for the topology: one row per
// inter-switch link (2·racks ToR links plus 2·aggs agg links — the "small
// constant times the number of nodes" the paper notes), one column per
// ordered rack pair.
func NewProblem(top *topology.Topology) *Problem {
	r := top.NumRacks()
	p := &Problem{
		top:       top,
		racks:     r,
		rowOfLink: make(map[topology.LinkID]int),
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i != j {
				p.pairs = append(p.pairs, pair{i, j})
			}
		}
	}
	p.links = top.InterSwitchLinks()
	for idx, l := range p.links {
		p.rowOfLink[l] = idx
	}
	p.a = linalg.NewMatrix(len(p.links), len(p.pairs))
	for col, pr := range p.pairs {
		for _, l := range top.TorPath(topology.RackID(pr.src), topology.RackID(pr.dst)) {
			row, ok := p.rowOfLink[l]
			if !ok {
				continue
			}
			p.a.Set(row, col, 1)
		}
	}
	p.csc = linalg.NewCSC(p.a)
	return p
}

// NumPairs reports the number of OD pairs (racks²−racks).
func (p *Problem) NumPairs() int { return len(p.pairs) }

// NumConstraints reports the number of link counters.
func (p *Problem) NumConstraints() int { return len(p.links) }

// VecFromTM flattens a ToR TM into the pair vector.
func (p *Problem) VecFromTM(m *tm.Matrix) []float64 {
	return p.VecFromTMInto(make([]float64, len(p.pairs)), m)
}

// VecFromTMInto is VecFromTM writing into dst, which must have NumPairs
// entries.
func (p *Problem) VecFromTMInto(dst []float64, m *tm.Matrix) []float64 {
	if m.N() != p.racks {
		panic("tomo: TM size mismatch")
	}
	if len(dst) != len(p.pairs) {
		panic("tomo: vector size mismatch")
	}
	for i, pr := range p.pairs {
		dst[i] = m.At(pr.src, pr.dst)
	}
	return dst
}

// TMFromVec inflates a pair vector into a ToR TM.
func (p *Problem) TMFromVec(x []float64) *tm.Matrix {
	if len(x) != len(p.pairs) {
		panic("tomo: vector size mismatch")
	}
	m := tm.NewMatrix(p.racks)
	for i, pr := range p.pairs {
		m.Add(pr.src, pr.dst, x[i])
	}
	return m
}

// LinkCounts computes the byte counters the links would report for the
// given ground-truth TM: b = A·x. This is the paper's methodology — the
// estimators see only b.
func (p *Problem) LinkCounts(truth *tm.Matrix) []float64 {
	return p.a.MulVec(p.VecFromTM(truth))
}

// rowColSumsFromCounts recovers per-ToR outbound and inbound totals from
// the ToR up/downlink counters inside b — the only inputs a gravity prior
// may use in the SNMP-only setting.
func (p *Problem) rowColSumsFromCounts(b []float64) (out, in []float64, total float64) {
	out = make([]float64, p.racks)
	in = make([]float64, p.racks)
	total = p.rowColSumsInto(out, in, b)
	return out, in, total
}

// rowColSumsInto accumulates the per-ToR totals into caller-provided
// (zeroed) slices and returns the grand total.
func (p *Problem) rowColSumsInto(out, in []float64, b []float64) (total float64) {
	for r := 0; r < p.racks; r++ {
		for _, l := range p.top.TorUplinks(topology.RackID(r)) {
			if row, ok := p.rowOfLink[l]; ok {
				out[r] += b[row]
			}
		}
		for _, l := range p.top.TorDownlinks(topology.RackID(r)) {
			if row, ok := p.rowOfLink[l]; ok {
				in[r] += b[row]
			}
		}
	}
	for _, v := range out {
		total += v
	}
	return total
}

// GravityPrior builds the gravity estimate from link counts alone:
// g_ij = out_i · in_j / total, spread over all off-diagonal pairs.
// Each call allocates the prior and the per-rack totals; batch
// workloads get the same arithmetic allocation-free through an
// Estimator's Tomogravity*Into methods, which keep the prior in a
// reused workspace.
func (p *Problem) GravityPrior(b []float64) []float64 {
	out, in, total := p.rowColSumsFromCounts(b)
	g := make([]float64, len(p.pairs))
	if total <= 0 {
		return g
	}
	sum := 0.0
	for i, pr := range p.pairs {
		g[i] = out[pr.src] * in[pr.dst] / total
		sum += g[i]
	}
	// Excluding the diagonal removes mass when traffic is clustered;
	// renormalize so the prior carries the observed total volume.
	if sum > 0 {
		scale := total / sum
		for i := range g {
			g[i] *= scale
		}
	}
	return g
}

// Tomogravity estimates the TM from link counts: gravity prior, then a
// weighted least-squares adjustment onto the constraint subspace, clamped
// non-negative (linalg.ClampNonNeg works in place — the returned slice is
// the projection's). Batch workloads should prefer
// Estimator.TomogravityInto, which is bit-identical and reuses its
// solver workspace across calls.
func (p *Problem) Tomogravity(b []float64) ([]float64, error) {
	g := p.GravityPrior(b)
	x, err := linalg.WLSProject(p.a, b, g, g)
	if err != nil {
		return nil, fmt.Errorf("tomo: tomogravity adjustment: %w", err)
	}
	return linalg.ClampNonNeg(x), nil
}

// TomogravityWithMultiplier runs tomogravity with an element-wise prior
// multiplier (e.g. from job metadata). The multiplied prior is rescaled to
// preserve total volume before adjustment.
func (p *Problem) TomogravityWithMultiplier(b, mult []float64) ([]float64, error) {
	if len(mult) != len(p.pairs) {
		panic("tomo: multiplier size mismatch")
	}
	g := p.GravityPrior(b)
	var before, after float64
	for i := range g {
		before += g[i]
		g[i] *= mult[i]
		after += g[i]
	}
	if after > 0 && before > 0 {
		scale := before / after
		for i := range g {
			g[i] *= scale
		}
	}
	x, err := linalg.WLSProject(p.a, b, g, g)
	if err != nil {
		return nil, fmt.Errorf("tomo: job-prior adjustment: %w", err)
	}
	return linalg.ClampNonNeg(x), nil
}

// SparsityMax finds the sparsest TM consistent with the link counts via a
// phase-1 basic feasible solution (≤ rank(A) non-zero entries). Each call
// spins up a solver on the shared column index, so SparsityMax stays
// goroutine-safe; batch workloads should prefer an Estimator, which reuses
// one solver (and can warm-start it) across windows.
func (p *Problem) SparsityMax(b []float64) ([]float64, error) {
	res, err := simplex.NewSolverFromCSC(p.csc).FeasibleBasic(b)
	if err != nil {
		return nil, fmt.Errorf("tomo: sparsity maximization: %w", err)
	}
	return res.X, nil
}

// NoisyLinkCounts perturbs exact link counters with multiplicative noise:
// each counter is scaled by a lognormal factor with the given relative
// standard deviation. Real SNMP counters suffer polling misalignment and
// loss; this models the sensitivity of the estimators to such error
// (exact counters are the paper's idealized setting).
func NoisyLinkCounts(b []float64, rng *stats.RNG, relStd float64) []float64 {
	if relStd <= 0 {
		return append([]float64(nil), b...)
	}
	// Lognormal with mean 1: sigma from relStd, mu = -sigma^2/2.
	sigma := math.Sqrt(math.Log(1 + relStd*relStd))
	d := stats.Lognormal{Mu: -sigma * sigma / 2, Sigma: sigma}
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = v * d.Sample(rng)
	}
	return out
}

// JobMultiplier derives the §5.3 prior multiplier from job membership
// records: for racks i and j, 1 + alpha · shared(i,j)/maxShared, where
// shared is the sum over jobs of the product of instance counts under the
// two ToRs during [from, to).
func JobMultiplier(log *eventlog.Log, top *topology.Topology, from, to netsim.Time, alpha float64) []float64 {
	// instances[job][rack] = count
	instances := make(map[int]map[int]float64)
	for _, m := range log.Membership() {
		if m.Start >= to || m.End <= from {
			continue
		}
		rack := top.Rack(m.Server)
		if rack < 0 {
			continue
		}
		byRack := instances[m.Job]
		if byRack == nil {
			byRack = make(map[int]float64)
			instances[m.Job] = byRack
		}
		byRack[int(rack)]++
	}
	r := top.NumRacks()
	shared := make([]float64, r*r)
	maxShared := 0.0
	// shared accumulates floats, so jobs and racks must be visited in a
	// fixed order: map order would perturb the sums' low bits run to run.
	for _, job := range det.SortedKeys(instances) {
		byRack := instances[job]
		racks := det.SortedKeys(byRack)
		for _, i := range racks {
			ci := byRack[i]
			for _, j := range racks {
				if i == j {
					continue
				}
				shared[i*r+j] += ci * byRack[j]
				if shared[i*r+j] > maxShared {
					maxShared = shared[i*r+j]
				}
			}
		}
	}
	// Flatten to pair order (same enumeration as NewProblem).
	var out []float64
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i == j {
				continue
			}
			m := 1.0
			if maxShared > 0 {
				m += alpha * shared[i*r+j] / maxShared
			}
			out = append(out, m)
		}
	}
	return out
}

// RoleAwareMultiplier is the §5.3 future-work extension the paper names:
// "incorporate further information on roles of nodes assigned to a job".
// Where JobMultiplier boosts any pair of racks sharing a job
// symmetrically, this prior is directed by workflow roles: traffic flows
// from the racks running a job's phase p to the racks running phase p+1
// (partition → aggregate pulls), so the multiplier for (i → j) grows with
// Σ_jobs Σ_phases count(job, phase, i) · count(job, phase+1, j).
func RoleAwareMultiplier(log *eventlog.Log, top *topology.Topology, from, to netsim.Time, alpha float64) []float64 {
	// counts[job][phase][rack]
	counts := make(map[int]map[int]map[int]float64)
	maxPhase := make(map[int]int)
	for _, m := range log.Membership() {
		if m.Start >= to || m.End <= from {
			continue
		}
		rack := top.Rack(m.Server)
		if rack < 0 {
			continue
		}
		byPhase := counts[m.Job]
		if byPhase == nil {
			byPhase = make(map[int]map[int]float64)
			counts[m.Job] = byPhase
		}
		byRack := byPhase[m.Phase]
		if byRack == nil {
			byRack = make(map[int]float64)
			byPhase[m.Phase] = byRack
		}
		byRack[int(rack)]++
		if m.Phase > maxPhase[m.Job] {
			maxPhase[m.Job] = m.Phase
		}
	}
	r := top.NumRacks()
	shared := make([]float64, r*r)
	maxShared := 0.0
	// Same fixed-order discipline as JobMultiplier: these are float sums.
	for _, job := range det.SortedKeys(counts) {
		byPhase := counts[job]
		for ph := 0; ph < maxPhase[job]; ph++ {
			up, down := byPhase[ph], byPhase[ph+1]
			for _, i := range det.SortedKeys(up) {
				ci := up[i]
				for _, j := range det.SortedKeys(down) {
					if i == j {
						continue
					}
					shared[i*r+j] += ci * down[j]
					if shared[i*r+j] > maxShared {
						maxShared = shared[i*r+j]
					}
				}
			}
		}
	}
	var out []float64
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i == j {
				continue
			}
			m := 1.0
			if maxShared > 0 {
				m += alpha * shared[i*r+j] / maxShared
			}
			out = append(out, m)
		}
	}
	return out
}

// RMSRE is the paper's error metric: root mean square relative error over
// the entries of the true TM at or above the threshold T chosen so that
// entries ≥ T make up volumeFrac (0.75 in the paper) of total true volume.
// It returns 0 when the true vector is empty.
func RMSRE(xTrue, xEst []float64, volumeFrac float64) float64 {
	if len(xTrue) != len(xEst) {
		panic("tomo: RMSRE length mismatch")
	}
	t := volumeThreshold(xTrue, volumeFrac)
	if t <= 0 {
		return 0
	}
	var sum float64
	var n int
	for i, v := range xTrue {
		if v >= t {
			rel := (xEst[i] - v) / v
			sum += rel * rel
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// volumeThreshold returns the value T such that entries >= T cover
// volumeFrac of the total.
func volumeThreshold(x []float64, volumeFrac float64) float64 {
	total := 0.0
	for _, v := range x {
		total += v
	}
	if total <= 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	target := volumeFrac * total
	cum := 0.0
	for _, v := range s {
		cum += v
		if cum >= target {
			return v
		}
	}
	return s[len(s)-1]
}

// SparsityOfVec reports how many entries a vector needs to cover
// volumeFrac of its total, and that count as a fraction of vector length —
// the Figure 14 comparison applied to estimates.
func SparsityOfVec(x []float64, volumeFrac float64) (count int, frac float64) {
	total := 0.0
	for _, v := range x {
		total += v
	}
	if total <= 0 || len(x) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), x...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	target := volumeFrac * total
	cum := 0.0
	for _, v := range s {
		cum += v
		count++
		if cum >= target {
			break
		}
	}
	return count, float64(count) / float64(len(x))
}

// NonZeroCount counts entries above a small absolute floor.
func NonZeroCount(x []float64) int {
	n := 0
	for _, v := range x {
		if v > 1e-6 {
			n++
		}
	}
	return n
}

// HeavyHitterOverlap counts how many of est's non-zero entries coincide
// with true entries above the given true-percentile — the paper's
// observation that sparsity-max non-zeros rarely land on real heavy
// hitters (only 5–20 of ~150).
func HeavyHitterOverlap(xTrue, xEst []float64, pct float64) int {
	if len(xTrue) != len(xEst) {
		panic("tomo: length mismatch")
	}
	var vals []float64
	for _, v := range xTrue {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	idx := int(pct / 100 * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	thresh := vals[idx]
	if thresh <= 0 {
		// Percentile falls in the zero mass; use the smallest positive.
		for _, v := range vals {
			if v > 0 {
				thresh = v
				break
			}
		}
		if thresh <= 0 {
			return 0
		}
	}
	n := 0
	for i, v := range xEst {
		if v > 1e-6 && xTrue[i] >= thresh {
			n++
		}
	}
	return n
}
