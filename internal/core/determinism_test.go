package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// digestRun simulates cfg and hashes every reassembled flow record in
// the trace plus the analysis report's headline JSON.
func digestRun(t *testing.T, cfg RunConfig) string {
	t.Helper()
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runDigest(t, rr, mustAnalyze(t, rr))
}

// runDigest hashes every flow record of rr's trace plus rep's headline
// JSON.
func runDigest(t *testing.T, rr *RunResult, rep *Report) string {
	t.Helper()
	h := sha256.New()
	for _, r := range rr.Records() {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %v\n",
			r.ID, r.Src, r.Dst, r.SrcPort, r.DstPort, r.Start, r.End, r.Bytes, r.Tag)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(j)
	return hex.EncodeToString(h.Sum(nil))
}

// traceDigest runs a shortened SmallRun simulation with the default
// simulate parallelism and digests it.
func traceDigest(t *testing.T) string {
	t.Helper()
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	return digestRun(t, cfg)
}

// The determinism invariant must hold across parallelism settings, not
// just across repeated runs: the simulator is specified to be a pure
// function of its seed, and the fused seam and the compression meter
// still run concurrently, so GOMAXPROCS=1 and GOMAXPROCS=NumCPU must
// produce byte-identical trace digests. This is the regression guard
// for anyone introducing scheduler-ordered work (dctlint's floatsum
// analyzer is the static half of the same contract).
func TestCrossGOMAXPROCSDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full shortened simulations")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := traceDigest(t)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := traceDigest(t)
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatalf("trace digest differs across GOMAXPROCS:\n  GOMAXPROCS=1:      %s\n  GOMAXPROCS=NumCPU: %s", serial, parallel)
	}
}

// TestRunDigestGoldens pins whole runs absolutely. For two 15-minute
// SmallRun seeds and a 10-minute PaperRun on the 75-rack fabric it
// checks three recorded digests: runDigest (every trace record plus
// the headline JSON), the full ReportDigest of the AnalyzeRun report
// (every figure series, including the Figure 3/4 window statistics,
// the Figure 7 CDFs and attribution, and the Figure 10 change series),
// and, for small-seed1, the full ReportDigest of the trace-only report
// (topology and duration, no run). A change that moves every code path
// at once cannot pass unnoticed. The digests hash exact float bits;
// they are recorded for linux/amd64 only, because the Go compiler may
// fuse multiply-adds on other architectures, which changes rounding.
func TestRunDigestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("three shortened simulations, one at paper scale")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on linux/amd64; %s/%s may fuse multiply-adds, which changes float rounding",
			runtime.GOOS, runtime.GOARCH)
	}
	small := func(seed uint64) RunConfig {
		cfg := SmallRun()
		cfg.Duration = 15 * time.Minute
		cfg.DrainTime = 5 * time.Minute
		cfg.Seed = seed
		cfg.Sched.Seed = seed
		return cfg
	}
	paper := PaperRun()
	paper.Duration = 10 * time.Minute
	paper.DrainTime = 5 * time.Minute
	for _, g := range []struct {
		name      string
		cfg       RunConfig
		run       string // runDigest: trace records plus headline JSON
		report    string // ReportDigest of the AnalyzeRun report
		traceOnly string // ReportDigest of the trace-only report; "" = not pinned
	}{
		{"small-seed1", small(1), "81c1c306f83f514ca10ecefd5ab4c4a31e2b562894f4c60df84bd8d4c6f59453",
			"931994b094f89f574be9632d40b2a2d35ea1d4257d02111adefcca54791dbedc",
			"b4d874ad072cde813201976057f778a2a1a8231df3d0fc11638a2910214aba14"},
		{"small-seed5", small(5), "51d75144ee8b00bd84864c9aab04d3a02436e649dcb491c77edde214683a7139",
			"04afd48bb9193095fce418ecb63d74beca342f0dc1b3899d3145cd5e6fcfce47", ""},
		{"paper-10m", paper, "d54adb656f451601a266394a0ec91209222762bc4e016366979625cac4c9e95e",
			"1f3318f16237f6e0fac1fcdd9699b0717f01666e0d8c3732a60672dc2fb227a1", ""},
	} {
		rr, err := Simulate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustAnalyze(t, rr)
		if got := runDigest(t, rr, rep); got != g.run {
			t.Errorf("%s: run digest %s, want %s", g.name, got, g.run)
		}
		if got := reportDigest(t, rep); got != g.report {
			t.Errorf("%s: report digest %s, want %s", g.name, got, g.report)
		}
		if g.traceOnly == "" {
			continue
		}
		rep, err = AnalyzeSource(context.Background(), rr.Source(), WithTopology(rr.Top), WithDuration(rr.Config.Duration))
		if err != nil {
			t.Fatal(err)
		}
		if got := reportDigest(t, rep); got != g.traceOnly {
			t.Errorf("%s: trace-only report digest %s, want %s", g.name, got, g.traceOnly)
		}
	}
}
