package core

import (
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/sensor"
)

// TestCoupledStepAllocationFree pins the zero-allocation contract of the
// coupled-loop step: once the simulator is warm (buffers sized, thermal
// factorizations cached), one full unobserved step — execute, map activity
// to blocks, evaluate power, advance the thermal model, read sensors, run
// the policy, actuate — must not touch the heap. The hot loop runs it every
// 10k simulated cycles, so a single stray allocation multiplies into GC
// pressure across the paper's billion-instruction sweeps.
func TestCoupledStepAllocationFree(t *testing.T) {
	cfg := quickConfig()
	cfg.Sensors.SampleRate = 1e6 // a sample, and a decision, in every step
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := dtm.Hyb(cfg.Trigger, 0.4, 2.0/3, ladder)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gzipProfile(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	// A short run settles the simulator exactly like Run does: init
	// steady state, warm caches, cache every factorization.
	if _, err := sim.Run(200_000); err != nil {
		t.Fatal(err)
	}

	l := sim.newLoop(1<<40, nil) // a window that outlasts the test
	step := func() {
		if _, err := l.step(); err != nil {
			t.Fatal(err)
		}
	}
	step() // size activity/pvec/readings before measuring

	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("coupled-loop step allocates %.1f times per iteration, want 0", allocs)
	}
}

// TestFollowerSampleAllocationFree extends the coupled-step contract to
// cohorts: with followers attached, every sensor sample also runs each
// follower's policy (scalar and vector) and compares its decision with
// the leader's. That must not touch the heap either.
func TestFollowerSampleAllocationFree(t *testing.T) {
	cfg := quickConfig()
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	lead, err := dtm.Hyb(cfg.Trigger, 0.4, 2.0/3, ladder)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dtm.LocalToggling(cfg.Trigger, dtm.DefaultFGGain, 2.0/3,
		dtm.Domains{Int: []int{0, 1}, FP: []int{2}, Mem: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gzipProfile(t), lead)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Follow(fg, local, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(200_000); err != nil {
		t.Fatal(err)
	}

	dt := cfg.Sensors.SamplePeriod()
	var temps, readings []float64
	temps = sim.tm.BlockTemps(temps)
	sample := func() {
		for i := range sim.followers {
			sim.followers[i].attached = true
		}
		readings, err = sim.bank.Read(readings, temps)
		if err != nil {
			t.Fatal(err)
		}
		d := sim.policy.Sample(sensor.Max(readings), dt)
		sim.sampleFollowers(readings, dt, d)
	}
	sample()

	if allocs := testing.AllocsPerRun(50, sample); allocs != 0 {
		t.Errorf("sample with followers allocates %.1f times per iteration, want 0", allocs)
	}
}
