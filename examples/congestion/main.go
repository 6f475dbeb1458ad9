// Congestion study (Figures 5–8): run a longer simulated window, find the
// high-utilization episodes on inter-switch links, characterize their
// durations, check whether congested flows slow down, and measure how
// much more likely a job is to fail reading input when its flows cross a
// hot link. Also demonstrates the paper's note that raising the threshold
// C from 0.7 to 0.9 yields qualitatively similar results.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dctraffic"
	"dctraffic/internal/congestion"
)

func main() {
	cfg := dctraffic.SmallRun()
	cfg.Duration = 3 * time.Hour
	cfg.DrainTime = 30 * time.Minute
	fmt.Printf("simulating %v of cluster time...\n", cfg.Duration)
	rr, err := dctraffic.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	links := rr.Top.InterSwitchLinks()
	for _, c := range []float64{0.7, 0.9} {
		eps := congestion.Detect(rr.Net.Stats(), rr.Top, c, links)
		cdf, over10, longest := congestion.DurationStats(eps)
		fmt.Printf("\n== threshold C = %.1f ==\n", c)
		fmt.Printf("episodes: %d   longest: %.0fs   P(dur<=10s): %.2f\n",
			cdf.N(), longest, cdf.P(10))
		fmt.Printf("links with >=10s episode:  %.2f (paper: 0.86)\n",
			congestion.FracLinksWithEpisodeAtLeast(eps, links, 10*time.Second))
		fmt.Printf("links with >=100s episode: %.2f (paper: 0.15)\n",
			congestion.FracLinksWithEpisodeAtLeast(eps, links, 100*time.Second))
		_ = over10
	}

	// Figures 7–8 and the incast audit at the default threshold, from
	// the analysis report; Figure 7's quantiles from the episode join
	// the analysis runs.
	rep, err := dctraffic.AnalyzeRun(context.Background(), rr)
	if err != nil {
		log.Fatal(err)
	}
	join := congestion.NewRecordJoin(congestion.NewEpisodeIndex(rep.Fig5.Episodes), rr.Top, 0)
	recs := rr.Records()
	for i := range recs {
		join.Join(&recs[i])
	}
	fmt.Printf("\n== Fig 7: flow rates ==\n")
	fmt.Printf("flows overlapping congestion: %d of %d\n", join.Overlap.N(), join.All.N())
	for _, q := range []float64{0.1, 0.5, 0.9} {
		fmt.Printf("  q%.0f: overlap %.3f Mbps | all %.3f Mbps\n",
			q*100, join.Overlap.Quantile(q), join.All.Quantile(q))
	}
	fmt.Println("(the paper: the two distributions nearly coincide — rates alone hide the damage)")

	fmt.Printf("\n== Fig 8: read-failure impact per %v period ==\n", rep.Fig8.Period)
	for _, d := range rep.Fig8.Days {
		fmt.Printf("  period %d: P(fail|congested)=%.4f  P(fail|clear)=%.4f  increase %+.0f%%\n",
			d.Day, d.PFailCongested, d.PFailClear, d.IncreasePct)
	}

	audit := rep.Incast
	fmt.Printf("\n== §4.4 incast preconditions ==\n")
	fmt.Printf("  connection cap per vertex:  %d\n", audit.MaxSimultaneousConnections)
	fmt.Printf("  flows within rack:          %.2f\n", audit.FracFlowsWithinRack)
	fmt.Printf("  flows within VLAN:          %.2f\n", audit.FracFlowsWithinVLAN)
	fmt.Println("small fan-in + local flows + multiplexed jobs = incast preconditions rarely co-occur")
}
