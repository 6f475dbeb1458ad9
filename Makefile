# dctraffic build and experiment targets.

GO ?= go

.PHONY: all build vet lint test test-short fuzz smoke-metrics smoke-stream smoke-fused smoke-sweep bench figures day paper-day clean

all: build vet lint test

build:
	$(GO) build ./...

# vet also fails on formatting drift so CI catches it before review.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The determinism multichecker (cmd/dctlint): mapiter, walltime,
# globalrand, floatsum, and gostmt, which fails on any go statement not
# registered with a reasoned //dctlint:ignore gostmt directive and
# listed in DESIGN.md §5's goroutine table, over every package.
# Stale //dctlint:ignore directives are findings too. CI runs the same
# binary with -github for inline PR annotations; -json is available for
# tooling. See DESIGN.md, "Determinism".
lint:
	$(GO) run ./cmd/dctlint ./...

# The default verify path: vet, the determinism linter, the full suite,
# the race detector over the two packages that deliver observer
# callbacks (the netsim leg runs the golden-digest simulate workloads)
# and over internal/trace (the compression meter), the analyze race leg
# (the compression meter running beside the sweep, over a trace and
# under RunAnalyze, which steps its simulator on the analysis
# goroutine, so the meter is the only goroutine a run starts; it also
# runs the test that a recovered panic joins the meter), and the fleet
# race leg (concurrent pipelines sharing the admission gate and the
# topology cache, and a panicking run failing alone).
test: vet lint
	$(GO) test ./...
	$(GO) test -race ./internal/netsim ./internal/sched ./internal/trace
	$(GO) test -race -run 'TestAnalyzeStream|TestRunAnalyze' ./internal/core
	$(GO) test -race -run 'TestFleet' ./internal/fleet

test-short:
	$(GO) test -short ./...

# The fuzz targets, 10 s each (-fuzz takes one target per run): the
# trace codec's decoders against encoding/json as the oracle (same
# verdict, same records; the .gz target writes each input to a file and
# drains it through trace.OpenFile, the path dcanalyze -trace runs, so
# it compares records as sorted multisets) and its encoder against
# json.Marshal byte for byte; the live seam's release order against a
# sort.Slice copy, under random watermark schedules; the stats radix
# sort against the sort.Slice comparator sort it replaced, bit for bit,
# with and without a weight column; and the unit-weight CDF store
# (direct, through a small-cap StreamCDF and through MergeCDF) against
# the always-weighted CDF it replaced, bit for bit up to the sign of a
# zero; and the online congestion episode tracker, on random bin series
# and frontier schedules, against the one-pass scan of the finished
# bins, with every record joined at its own frontier getting the overlap
# bit and attribution terms of a join against the final index.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONLGz$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzWriteJSONL$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzLiveSourceOrder$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSortSamples$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCDFWeights$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzEpisodeTracker$$' -fuzztime 10s ./internal/congestion

# End-to-end observability smoke test: a short SmallRun-shaped dcsim
# with -progress and -metrics, then dcmetrics asserts the snapshot
# parses and contains every subsystem's series. CI uploads the snapshot
# as an artifact.
smoke-metrics:
	$(GO) run ./cmd/dcsim -duration 30m -drain 10m -progress \
		-metrics smoke-metrics.json -out /dev/null
	$(GO) run ./cmd/dcmetrics -require netsim.,cosmos.,scope.,trace.,runtime. smoke-metrics.json

# Bounded-memory streaming smoke test: dcsim writes a short trace,
# dcanalyze streams it through the sliding-window pipeline under a
# GOMEMLIMIT soft target, and -max-heap-mb turns the peak live heap
# into a hard assertion (the process exits nonzero on a breach).
smoke-stream:
	$(GO) run ./cmd/dcsim -duration 30m -drain 10m -out smoke-stream.jsonl
	GOMEMLIMIT=64MiB $(GO) run ./cmd/dcanalyze -trace smoke-stream.jsonl \
		-racks 8 -servers 10 -duration 30m -max-heap-mb 64 > /dev/null

# Fused-pipeline smoke test: dcanalyze's one simulating path simulates
# and analyzes interleaved through the watermarked live source under a
# GOMEMLIMIT soft target, with -max-heap-mb as a hard bound on the
# sampled peak heap, then dcmetrics asserts the run snapshot carries the
# seam's trace.live.* series (which only the fused pipeline registers),
# among them the simulator's step time, alongside the usual subsystems.
# The run keeps no records, read attempts or scanned link bins, and its
# sampled peak read 12–17 MiB over nine runs on a 2-CPU x86-64 host
# (EXPERIMENTS.md "A fused run keeps no bins, reads or lifecycle log");
# 32 MiB leaves about twice that for GC timing.
smoke-fused:
	GOMEMLIMIT=128MiB $(GO) run ./cmd/dcanalyze -racks 8 -servers 10 \
		-duration 30m -max-heap-mb 32 -metrics smoke-fused.json > /dev/null
	$(GO) run ./cmd/dcmetrics -require netsim.,trace.,trace.live.,trace.live.step_seconds smoke-fused.json

# Fleet-executor smoke test: a 3-seed 30 m sweep run concurrently under
# a global GOMEMLIMIT (the admission gate derives its budget from it),
# then dcmetrics asserts the merged snapshot carries the fleet scheduler
# series, the cross-run subsystem rollup and the per-run sections.
smoke-sweep:
	GOMEMLIMIT=256MiB $(GO) run ./cmd/dcsweep -racks 8 -servers 10 \
		-duration 30m -drain 10m -seeds 1,2,3 -n 2 -progress \
		-metrics smoke-sweep.json -json smoke-sweep-manifest.json > /dev/null
	$(GO) run ./cmd/dcmetrics -require fleet.,netsim.,trace.,analyze.,run0.,run1.,run2. smoke-sweep.json

# One benchmark per paper table/figure plus ablations, and the
# per-package infrastructure benchmarks (simulator, TM, trace, solver).
bench:
	$(GO) test -bench . -benchmem ./...

# Regenerate every figure's data series into ./figures (laptop scale, 2 h).
figures:
	$(GO) run ./cmd/dcanalyze -racks 8 -servers 10 -duration 2h -tsv figures

# The EXPERIMENTS.md reference run: laptop-scale cluster, 24 simulated
# hours. On a 2-CPU x86-64 host shared with other work: 41–43 s of wall
# clock over three runs and 0.65–0.70 GiB of peak RSS, plus the build
# (EXPERIMENTS.md "A fused run keeps no bins, reads or lifecycle log").
day:
	$(GO) run ./cmd/dcanalyze -racks 8 -servers 10 -duration 24h -tsv figures-day

# Paper-scale (1500 servers, 24 h): 25–28 s of wall clock over three
# runs and 256–266 MiB of peak RSS on the same host, plus the build.
paper-day:
	$(GO) run ./cmd/dcanalyze -paper -tsv figures-paper

clean:
	rm -rf figures figures-day figures-paper trace.jsonl smoke-metrics.json smoke-stream.jsonl smoke-fused.json smoke-sweep.json smoke-sweep-manifest.json
