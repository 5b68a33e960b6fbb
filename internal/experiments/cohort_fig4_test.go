//go:build !race

package experiments

import (
	"context"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/trace"
)

// splitmix64 and deriveSeed spread one workload seed over the profile and
// sensor seeds, as the repository benchmark (dtmbench) does.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func deriveSeed(seed, salt uint64) uint64 {
	if s := splitmix64(seed ^ splitmix64(salt)); s != 0 {
		return s
	}
	return 1
}

// TestFig4SweepCohorts runs the benchmark's fig4-sweep workload at seed 1:
// gcc, bzip2 and gzip under Fig. 4's four policies with DVS-stall, plus
// their baselines, on one worker. gcc never reaches the trigger, so its
// four jobs follow its baseline; on bzip2 and gzip PI-Hyb decides like FG
// throughout, and the clamped DTM runs cannot follow the unclamped
// baseline. So the 15 consumers need 9 simulations, from 3 warm prefixes.
func TestFig4SweepCohorts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig4-sweep workload")
	}
	const seed = 1
	cfg := core.DefaultConfig()
	cfg.DVSStall = true
	cfg.Sensors.Seed = deriveSeed(seed, 1000)
	cfg.WarmupCycles = 1_000_000
	cfg.InitCycles = 500_000
	cfg.SettleInstructions = 1_500_000
	var profs []trace.Profile
	for _, name := range []string{"gcc", "bzip2", "gzip"} {
		for i, p := range trace.Benchmarks() {
			if p.Name == name {
				p.Seed = deriveSeed(seed, uint64(i+1))
				profs = append(profs, p)
			}
		}
	}
	r, err := NewRunner(Options{Instructions: 1_500_000, Benchmarks: profs, Config: cfg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig4(context.Background(), r, true); err != nil {
		t.Fatal(err)
	}
	if got := r.sims.Load(); got != 9 {
		t.Errorf("fig4-sweep ran %d simulations, want 9", got)
	}
	if got := r.prefixWarms.Load(); got != 3 {
		t.Errorf("fig4-sweep warmed %d prefixes, want 3", got)
	}
}
