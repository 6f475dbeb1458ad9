// Test corpus for the floatsum analyzer: scheduler-ordered float
// reductions are flagged; per-goroutine partials combined in a fixed
// order are the fix and stay clean.
package floatsum

import "sync"

func sharedAccumulator(parts [][]float64) float64 {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		total float64
	)
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range p {
				mu.Lock()
				total += v // want "floating-point accumulation into captured total"
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return total
}

func countAccumulatorOK(parts [][]float64) int {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		n  int
	)
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			n += len(p) // integer addition commutes exactly: not flagged
			mu.Unlock()
		}()
	}
	wg.Wait()
	return n
}

func partialSumsOK(parts [][]float64) float64 {
	partial := make([]float64, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range p {
				partial[i] += v // per-goroutine slot, combined in fixed order below
			}
		}()
	}
	wg.Wait()
	total := 0.0
	for _, v := range partial {
		total += v
	}
	return total
}

// shardStats mirrors the analysis pipeline's per-shard slot structs:
// each worker owns one element and writes only through its own index.
type shardStats struct {
	sum   float64
	count int
}

func shardSlotsOK(parts [][]float64) float64 {
	slots := make([]shardStats, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range p {
				slots[i].sum += v // owned slot behind a field selector: not flagged
				slots[i].count++
			}
		}()
	}
	wg.Wait()
	// Single-goroutine merge in fixed shard order: bit-identical at any
	// worker count.
	total := 0.0
	for _, s := range slots {
		total += s.sum
	}
	return total
}

type runningTotals struct {
	bytes float64
}

func mutexMergeNotOK(parts [][]float64) float64 {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		res runningTotals
	)
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := 0.0
			for _, v := range p {
				sub += v
			}
			mu.Lock()
			res.bytes += sub // want "floating-point accumulation into captured res"
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res.bytes
}

func goroutineLocalOK(ps []float64, out chan<- float64) {
	go func() {
		sum := 0.0 // declared inside the goroutine: not shared
		for _, v := range ps {
			sum += v
		}
		out <- sum
	}()
}

func channelReduce(ch chan float64) float64 {
	total := 0.0
	for v := range ch {
		total += v // want "floating-point reduction over channel ch"
	}
	return total
}

func channelCollectOK(ch chan float64) []float64 {
	var out []float64
	for v := range ch {
		out = append(out, v) // collected, to be sorted/summed in fixed order by the caller
	}
	return out
}

// simDomain mirrors netsim's per-rack event domains: a worker owns a
// contiguous range of domains and writes only their per-window slots,
// which the coordinator folds in domain order after the barrier.
type simDomain struct {
	clock        int64
	bytesPartial float64
}

func domainSlotsOK(doms []simDomain, parts [][]float64) float64 {
	var wg sync.WaitGroup
	for i := range doms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range parts[i] {
				doms[i].bytesPartial += v // owned domain slot behind a field selector: not flagged
			}
		}()
	}
	wg.Wait()
	// Fixed-order merge at the window barrier: bit-identical at any
	// worker count.
	total := 0.0
	for i := range doms {
		total += doms[i].bytesPartial
	}
	return total
}

// netTotals stands in for the simulator state a worker must NOT merge
// into on its own: the fold below runs on whichever worker finishes its
// span first, so the sum's rounding follows the scheduler.
type netTotals struct {
	totalBytes float64
}

func domainBarrierMergeNotOK(doms []simDomain, nt *netTotals) {
	var wg sync.WaitGroup
	for i := range doms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nt.totalBytes += doms[i].bytesPartial // want "floating-point accumulation into captured nt"
		}()
	}
	wg.Wait()
}

func suppressedOK(ch chan float64) float64 {
	total := 0.0
	for v := range ch {
		//dctlint:ignore floatsum single producer feeds this channel in a deterministic order
		total += v
	}
	return total
}

// aliasedSlotNotOK regresses a former false negative: slot syntax used
// to be accepted wholesale, but a non-task-derived index means every
// goroutine adds to the same element in scheduler order.
func aliasedSlotNotOK(parts [][]float64) float64 {
	partial := make([]float64, len(parts))
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range p {
				partial[0] += v // want "floating-point accumulation into aliased slot partial\[0\]"
			}
		}()
	}
	wg.Wait()
	return partial[0]
}

// singleWriterFixedSlotOK: one goroutine owning one fixed slot is the
// recommended pattern, constant index and all.
func singleWriterFixedSlotOK(ps []float64) float64 {
	partial := make([]float64, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range ps {
			partial[0] += v // single instance: this slot has exactly one writer
		}
	}()
	wg.Wait()
	return partial[0]
}

// meter mirrors the §2 compression meter's shape: methods launched by
// name, each on a goroutine of its own.
type meter struct {
	total float64
	parts []float64
	ratio float64
}

// sum adds into its receiver, which every launch shares: the launch
// site names no captured variable, but the body's receiver is outside
// it.
func (m *meter) sum(vs []float64) {
	for _, v := range vs {
		m.total += v // want "floating-point accumulation into captured m"
	}
}

// fill adds only into the slot its own parameter indexes.
func (m *meter) fill(i int, vs []float64) {
	for _, v := range vs {
		m.parts[i] += v
	}
}

// measure keeps a local partial and publishes it once.
func (m *meter) measure(vs []float64, done chan<- struct{}) {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	m.ratio = sum
	close(done)
}

var grandTotal float64

func addAll(vs []float64) {
	for _, v := range vs {
		grandTotal += v // want "floating-point accumulation into captured grandTotal"
	}
}

// namedLaunchesMixed launches sum twice; its finding is reported once.
func namedLaunchesMixed(m *meter, parts [][]float64, done chan<- struct{}) {
	go m.sum(parts[0])
	go m.sum(parts[1])
	for i, p := range parts {
		go m.fill(i, p)
		go addAll(p)
	}
	go m.measure(parts[0], done)
}
