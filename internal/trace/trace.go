// Package trace is the measurement substrate of the reproduction — the
// analog of the paper's ETW-based socket-level instrumentation (§2).
//
// A Collector observes the simulated network as the paper's per-server
// agents observed production sockets: it captures one logical record per
// flow (with the socket-level op counts that flow would have generated —
// one event per application read or write, aggregating over packets and
// skipping network chatter), accounts the instrumentation overhead per
// server (CPU, disk, log volume, compression), and exposes the flow
// records every analysis in this repository consumes.
//
// Uploads of measurement data are accounted in bytes but deliberately not
// injected into the simulated network, so the measurement infrastructure
// does not perturb the traffic characterization — mirroring the paper's
// treatment, which reports overhead separately.
package trace

import (
	"sync"

	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/topology"
)

// FlowRecord is the socket-level log's view of one flow: the five-tuple,
// lifetime, byte count and application attribution.
type FlowRecord struct {
	ID      netsim.FlowID     `json:"id"`
	Src     topology.ServerID `json:"src"`
	Dst     topology.ServerID `json:"dst"`
	SrcPort uint16            `json:"sport"`
	DstPort uint16            `json:"dport"`
	Start   netsim.Time       `json:"start"`
	End     netsim.Time       `json:"end"`
	Bytes   int64             `json:"bytes"`
	Tag     netsim.FlowTag    `json:"tag"`
	// Canceled marks transfers aborted mid-flight (killed jobs); Bytes
	// then holds what actually moved.
	Canceled bool `json:"canceled,omitempty"`
}

// Duration returns the flow lifetime.
func (r FlowRecord) Duration() netsim.Time { return r.End - r.Start }

// AvgRateBps returns the average rate in bits per second (0 for
// zero-duration flows).
func (r FlowRecord) AvgRateBps() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / d
}

// Config tunes the collector's overhead model. Zero fields take defaults.
type Config struct {
	// OpBytes is the application read/write size: one socket event is
	// logged per OpBytes transferred. Default 1 MiB.
	OpBytes int64

	// EventLogBytes is the on-disk size of one logged event before
	// compression. Default 64 bytes.
	EventLogBytes int64

	// CyclesPerEvent models the CPU cost of capturing and parsing one
	// socket event. Default 2500 cycles.
	CyclesPerEvent float64

	// ServerHz is a server's total cycle budget per second (cores ×
	// clock). Default 4 cores × 2.4 GHz.
	ServerHz float64

	// DiskBps is the server's disk bandwidth, for disk-utilization
	// overhead. Default 500 MB/s.
	DiskBps float64

	// CompressionRatio divides log bytes before upload. The paper
	// measured at least 3x; default 3.5.
	CompressionRatio float64
}

func (c Config) withDefaults() Config {
	if c.OpBytes <= 0 {
		c.OpBytes = 1 << 20
	}
	if c.EventLogBytes <= 0 {
		c.EventLogBytes = 64
	}
	if c.CyclesPerEvent <= 0 {
		c.CyclesPerEvent = 2500
	}
	if c.ServerHz <= 0 {
		c.ServerHz = 4 * 2.4e9
	}
	if c.DiskBps <= 0 {
		c.DiskBps = 500e6
	}
	if c.CompressionRatio <= 0 {
		c.CompressionRatio = 3.5
	}
	return c
}

// Collector implements netsim.Observer, building the cluster-wide socket
// log. Register with Network.AddObserver before running the workload.
type Collector struct {
	cfg Config
	top *topology.Topology

	records  []FlowRecord // the log; nil with a sink
	nRecords int

	// Per-server accounting (cluster servers only; external hosts are
	// not instrumented, as in the paper).
	events   []int64 // socket events captured
	netBytes []int64 // network bytes observed
	started  int64

	// Metric handles (nil when uninstrumented; methods are nil-safe).
	metRecords      *obs.Counter
	metSocketEvents *obs.Counter

	// sink, when set, receives each record in place of the log (see
	// SetSink).
	sink func(FlowRecord)

	// meter measures the §2 compression ratio (StartCompressionMeter).
	// meterMu serializes its start, join and stop, and stays held while
	// a join or stop waits for the meter goroutine, which never takes it:
	// a stop that races a join then waits for the result instead of
	// voiding it. FlowEnded feeds the meter unlocked, because a meter is
	// started only before or after the run.
	meterMu sync.Mutex
	meter   *compressMeter
}

// NewCollector builds a collector for the topology.
func NewCollector(top *topology.Topology, cfg Config) *Collector {
	return &Collector{
		cfg:      cfg.withDefaults(),
		top:      top,
		events:   make([]int64, top.NumServers()),
		netBytes: make([]int64, top.NumServers()),
	}
}

// Instrument registers the collector's trace.* series with the
// registry. Write-only from the collector's perspective (see the obs
// package contract); safe to call with a nil registry.
func (c *Collector) Instrument(r *obs.Registry) {
	c.metRecords = r.Counter("trace.records_total")
	c.metSocketEvents = r.Counter("trace.socket_events_total")
}

// FlowStarted implements netsim.Observer.
func (c *Collector) FlowStarted(f *netsim.Flow) {
	c.started++
	// Connection-establishment events at both instrumented endpoints.
	c.account(f.Src, 1, 0)
	c.account(f.Dst, 1, 0)
}

// FlowEnded implements netsim.Observer: the flow's socket events are
// attributed to its endpoints. Canceled flows are logged with the bytes
// that actually moved before the abort.
func (c *Collector) FlowEnded(f *netsim.Flow) {
	moved := f.Bytes
	if f.Canceled {
		moved = int64(f.Transferred())
	}
	ops := moved / c.cfg.OpBytes
	if moved%c.cfg.OpBytes != 0 || moved == 0 {
		ops++
	}
	// Sends at the source, receives at the destination, plus one close
	// event each.
	c.account(f.Src, ops+1, moved)
	c.account(f.Dst, ops+1, moved)
	rec := FlowRecord{
		ID: f.ID, Src: f.Src, Dst: f.Dst,
		SrcPort: f.SrcPort, DstPort: f.DstPort,
		Start: f.Start, End: f.End, Bytes: moved, Tag: f.Tag,
		Canceled: f.Canceled,
	}
	c.nRecords++
	c.metRecords.Inc()
	if c.meter != nil {
		c.meter.feed(rec)
	}
	if c.sink != nil {
		c.sink(rec)
	} else {
		c.records = append(c.records, rec)
	}
}

// SetSink hands each completed record to fn instead of the log: a
// collector with a sink keeps no log, so Records stays nil while
// NumRecords keeps counting. Set it before the run starts. FlowEnded
// callbacks run on the event-loop goroutine in the simulator's
// deterministic completion order, so the sink sees records in the order
// a log would have kept them — this is the emission path core.RunAnalyze
// feeds a LiveSource from. The sink runs inside the event loop and must
// not block.
func (c *Collector) SetSink(fn func(FlowRecord)) { c.sink = fn }

func (c *Collector) account(s topology.ServerID, events, bytes int64) {
	if c.top.IsExternal(s) {
		return
	}
	c.events[s] += events
	c.netBytes[s] += bytes
	c.metSocketEvents.Add(events)
}

// Records returns the completed-flow log in completion order: nil for a
// collector with a sink (SetSink), which keeps no log. The slice is
// shared; callers must not modify it.
func (c *Collector) Records() []FlowRecord { return c.records }

// NumRecords reports the number of completed flows captured, logged or
// handed to the sink.
func (c *Collector) NumRecords() int { return c.nRecords }

// Overhead summarizes the §2 instrumentation cost model over a run of the
// given length.
type Overhead struct {
	// MedianCPUPct is the median per-server CPU utilization increase.
	MedianCPUPct float64
	// MedianDiskPct is the median per-server disk utilization increase.
	MedianDiskPct float64
	// CyclesPerNetworkByte is the extra CPU cycles per byte of network
	// traffic.
	CyclesPerNetworkByte float64
	// LogBytesPerServerPerDay is the median uncompressed log production.
	LogBytesPerServerPerDay float64
	// UploadBytesPerServerPerDay is after compression.
	UploadBytesPerServerPerDay float64
	// CompressionRatio echoes the model constant.
	CompressionRatio float64
	// TotalEvents is the cluster-wide socket event count.
	TotalEvents int64
}

// Overhead computes the overhead report for a run lasting elapsed.
func (c *Collector) Overhead(elapsed netsim.Time) Overhead {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	n := len(c.events)
	cpu := make([]float64, n)
	disk := make([]float64, n)
	logRate := make([]float64, n)
	var totalEvents, totalNetBytes int64
	for i := 0; i < n; i++ {
		ev := float64(c.events[i])
		totalEvents += c.events[i]
		totalNetBytes += c.netBytes[i]
		evPerSec := ev / secs
		cpu[i] = evPerSec * c.cfg.CyclesPerEvent / c.cfg.ServerHz * 100
		bytesPerSec := ev * float64(c.cfg.EventLogBytes) / secs
		disk[i] = bytesPerSec / c.cfg.DiskBps * 100
		logRate[i] = ev * float64(c.cfg.EventLogBytes) / secs * 86400
	}
	o := Overhead{
		MedianCPUPct:     median(cpu),
		MedianDiskPct:    median(disk),
		CompressionRatio: c.cfg.CompressionRatio,
		TotalEvents:      totalEvents,
	}
	o.LogBytesPerServerPerDay = median(logRate)
	o.UploadBytesPerServerPerDay = o.LogBytesPerServerPerDay / c.cfg.CompressionRatio
	if totalNetBytes > 0 {
		o.CyclesPerNetworkByte = float64(totalEvents) * c.cfg.CyclesPerEvent / float64(totalNetBytes) / 2
	}
	return o
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	// insertion sort is fine for per-server arrays
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// StartCompressionMeter starts measuring the §2 compression ratio of
// the first CompressionSample records on a goroutine of its own: the
// records already logged are handed over at once, and FlowEnded feeds
// later ones in completion order without blocking. Call it before the
// run starts or after it ends, never while it runs; a collector with a
// sink logs nothing to hand over, so start its meter before the run. A
// meter that is already started, or has finished, is kept.
func (c *Collector) StartCompressionMeter() {
	c.meterMu.Lock()
	defer c.meterMu.Unlock()
	c.startMeterLocked()
}

func (c *Collector) startMeterLocked() {
	if c.meter == nil {
		c.meter = newCompressMeter()
		c.meter.feedLog(c.records)
	}
}

// MeasuredCompression returns the gzip ratio achieved on the first
// CompressionSample collected records, grounding the §2 "at least 3x"
// claim in this run's data. It joins the meter (starting one if none
// runs), so call it after the run; every later call returns the same
// value. The ratio is 0 with no error when nothing was collected.
func (c *Collector) MeasuredCompression() (float64, error) {
	c.meterMu.Lock()
	defer c.meterMu.Unlock()
	c.startMeterLocked()
	c.meter.closeFeed()
	<-c.meter.done
	return c.meter.ratio, c.meter.err
}

// StopCompressionMeter abandons an unfinished measurement and waits for
// the meter goroutine to exit; a finished one is kept. It is the
// cleanup of a failed analysis and, like StartCompressionMeter, must
// not run concurrently with the run.
func (c *Collector) StopCompressionMeter() {
	c.meterMu.Lock()
	defer c.meterMu.Unlock()
	m := c.meter
	if m == nil {
		return
	}
	m.stopped.Store(true)
	m.closeFeed()
	<-m.done
	if m.err != nil {
		c.meter = nil
	}
}
