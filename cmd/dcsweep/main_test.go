package main

import (
	"testing"
	"time"
)

// -duration and -drain apply with -paper too, and their zero defaults
// keep each configuration's own window and drain.
func TestBuildSpecsDuration(t *testing.T) {
	for _, c := range []struct {
		paper                bool
		duration, drain      time.Duration
		wantDur, wantDrain   time.Duration
		wantRacks, wantHosts int
	}{
		{true, 30 * time.Minute, 10 * time.Minute, 30 * time.Minute, 10 * time.Minute, 75, 20},
		{true, 0, 0, 24 * time.Hour, time.Hour, 75, 20},
		{false, 30 * time.Minute, 10 * time.Minute, 30 * time.Minute, 10 * time.Minute, 4, 5},
		{false, 0, 0, 2 * time.Hour, 30 * time.Minute, 4, 5},
	} {
		specs, err := buildSpecs(c.paper, 4, 5, c.duration, c.drain, "1,2", "tree,multipath")
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 4 {
			t.Fatalf("paper=%v: %d specs, want 4", c.paper, len(specs))
		}
		for _, sp := range specs {
			cfg := sp.Config
			if cfg.Duration != c.wantDur || cfg.DrainTime != c.wantDrain {
				t.Errorf("paper=%v -duration %v -drain %v: %s has %v + %v, want %v + %v",
					c.paper, c.duration, c.drain, sp.Name, cfg.Duration, cfg.DrainTime, c.wantDur, c.wantDrain)
			}
			if cfg.Topology.Racks != c.wantRacks || cfg.Topology.ServersPerRack != c.wantHosts {
				t.Errorf("paper=%v: %s is %d x %d, want %d x %d", c.paper, sp.Name,
					cfg.Topology.Racks, cfg.Topology.ServersPerRack, c.wantRacks, c.wantHosts)
			}
		}
	}
}
