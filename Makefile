# dctraffic build and experiment targets.

GO ?= go

.PHONY: all build vet lint test test-short smoke-metrics smoke-stream smoke-fused smoke-sweep bench bench-snapshot figures day paper-day clean

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
# globalrand, floatsum, plus the dataflow-backed parallel-contract
# analyzers sharedslot, mergeorder, rngshare, over every package.
# Stale //dctlint:ignore directives are findings too. CI runs the same
# binary with -github for inline PR annotations; -json is available for
# tooling. See DESIGN.md, "Determinism".
lint:
	$(GO) run ./cmd/dctlint ./...

# The default verify path: vet, the determinism linter, the full suite,
# the race detector over the two packages that deliver observer
# callbacks (the netsim leg runs the golden-digest simulate workloads)
# and over internal/trace (the live seam and the compression meter),
# the parallel-analysis race leg (the task slots of the analyze
# pipeline must stay disjoint), and the fleet race leg (concurrent
# pipelines sharing the admission gate and the topology cache).
test: vet lint
	$(GO) test ./...
	$(GO) test -race ./internal/netsim ./internal/sched ./internal/trace
	$(GO) test -race -run 'TestAnalyzeParallel|TestAnalyzeStream|TestRunAnalyze' ./internal/core
	$(GO) test -race -run 'TestFleet' ./internal/fleet

test-short:
	$(GO) test -short ./...

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

# Fused-pipeline smoke test: simulate and analyze overlapped through
# the watermarked live source under a GOMEMLIMIT soft target, then
# dcmetrics asserts the run snapshot carries the seam's series
# (trace.live.* gauges, pipeline.* backpressure counter) alongside the
# usual subsystems.
smoke-fused:
	GOMEMLIMIT=128MiB $(GO) run ./cmd/dcanalyze -fused -racks 8 -servers 10 \
		-duration 30m -metrics smoke-fused.json > /dev/null
	$(GO) run ./cmd/dcmetrics -require netsim.,trace.,trace.live.,pipeline. smoke-fused.json

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

# Machine-readable snapshots of the netsim allocator, analysis
# pipeline, and tomography solver benchmarks, tracked in-repo so future
# PRs can see the perf trajectory. The tomo pair is the warm-start
# headline: one cold paper-scale sparsity-max solve vs the steady-state
# warm window.
bench-snapshot:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/netsim | $(GO) run ./cmd/benchjson > BENCH_netsim.json
	$(GO) test -bench 'BenchmarkAnalyze|BenchmarkRunAnalyze' -benchmem -run '^$$' ./internal/core | $(GO) run ./cmd/benchjson > BENCH_analyze.json
	$(GO) test -bench 'BenchmarkSparsityMax' -benchmem -run '^$$' -timeout 30m ./internal/tomo | $(GO) run ./cmd/benchjson > BENCH_tomo.json
	$(GO) test -bench 'BenchmarkFleet' -benchmem -run '^$$' ./internal/fleet | $(GO) run ./cmd/benchjson > BENCH_fleet.json

# Regenerate every figure's data series into ./figures (laptop scale, 2 h).
figures:
	$(GO) run ./cmd/dcanalyze -racks 8 -servers 10 -duration 2h -tsv figures

# The EXPERIMENTS.md reference run: laptop-scale cluster, 24 simulated hours.
day:
	$(GO) run ./cmd/dcanalyze -racks 8 -servers 10 -duration 24h -tsv figures-day

# Paper-scale (1500 servers, 24 h): minutes of wall clock, a few GB of RAM.
paper-day:
	$(GO) run ./cmd/dcanalyze -paper -tsv figures-paper

clean:
	rm -rf figures figures-day figures-paper trace.jsonl smoke-metrics.json smoke-stream.jsonl smoke-fused.json smoke-sweep.json smoke-sweep-manifest.json
