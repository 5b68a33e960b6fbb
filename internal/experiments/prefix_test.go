package experiments

import (
	"context"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/trace"
)

// TestRunJobsForkMatchesFresh is the fork-vs-fresh differential: every
// Result of a RunJobs batch, whose simulations start from shared warm
// prefixes, must equal field for field the Result of a fresh core.New +
// RunContext of the same job, for Fig. 4's four policies under DVS-stall
// and ideal DVS, and for the baselines the batch resolved. At this scale
// gzip starts above the trigger (so DTM runs are clamped) and its
// policies act within the run; gcc stays cool. The batch must warm
// exactly one prefix per distinct key: one per benchmark, plus one for a
// job whose longer warm-up gives it a key of its own.
func TestRunJobsForkMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 38 simulations")
	}
	opts := tinyOptions(t)
	opts.Instructions = 100_000
	opts.Config.SettleInstructions = 600_000
	opts.Workers = 3
	var profs []trace.Profile
	for _, name := range []string{"gzip", "gcc"} {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		profs = append(profs, p)
	}
	opts.Benchmarks = profs
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, stall := range []bool{true, false} {
		cfg := opts.Config
		cfg.DVSStall = stall
		for _, f := range []PolicyFactory{FGPolicy(cfg), DVSPolicy(cfg), PIHybPolicy(cfg, stall), HybPolicy(cfg, stall)} {
			for _, p := range profs {
				jobs = append(jobs, Job{Config: cfg, Profile: p, Factory: f})
			}
		}
	}
	longer := opts.Config
	longer.WarmupCycles += 50_000
	jobs = append(jobs, Job{Config: longer, Profile: profs[0], Factory: HybPolicy(longer, true)})

	ms, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.prefixWarms.Load(), int64(len(profs)+1); got != want {
		t.Errorf("RunJobs warmed %d prefixes, want %d (one per distinct key)", got, want)
	}

	// The fresh runs: every job, then the baselines (nil factory).
	type run struct {
		cfg  core.Config
		prof trace.Profile
		f    *PolicyFactory
		got  core.Result
	}
	var runs []run
	for i := range jobs {
		runs = append(runs, run{jobs[i].Config, jobs[i].Profile, &jobs[i].Factory, ms[i].Result})
	}
	for _, p := range profs {
		got, err := r.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{opts.Config, p, nil, got})
	}
	fresh := make([]core.Result, len(runs))
	err = forEach(context.Background(), 2, make([]string, len(runs)), nil, func(ctx context.Context, i int) error {
		var pol dtm.Policy
		if f := runs[i].f; f != nil {
			var err error
			if pol, err = f.New(); err != nil {
				return err
			}
		}
		sim, err := core.New(runs[i].cfg, runs[i].prof, pol)
		if err != nil {
			return err
		}
		fresh[i], err = sim.RunContext(ctx, opts.Instructions)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	engaged := false
	for i, rn := range runs {
		name := "none"
		if rn.f != nil {
			name = rn.f.Name
		}
		if rn.got != fresh[i] {
			t.Errorf("%s/%s (stall=%v): forked result differs from fresh\nfresh:  %+v\nforked: %+v",
				rn.prof.Name, name, rn.cfg.DVSStall, fresh[i], rn.got)
		}
		engaged = engaged || rn.got.DVSSwitches > 0 || rn.got.AvgGate > 0
	}
	if !engaged {
		t.Error("no policy acted in any run; the differential does not cover DTM")
	}
}

// TestRunJobsCachedBaselineNotAConsumer checks that a batch whose
// baselines are already cached plans no baseline consumers: every prefix
// is still warmed once and taken by its last job.
func TestRunJobsCachedBaselineNotAConsumer(t *testing.T) {
	opts := tinyOptions(t)
	opts.Workers = 2
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := opts.Benchmarks[0]
	if _, err := r.Baseline(prof); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Config: opts.Config, Profile: prof, Factory: FGPolicy(opts.Config)},
		{Config: opts.Config, Profile: prof, Factory: DVSPolicy(opts.Config)},
	}
	b := r.planBatch(jobs)
	b.tab.mu.Lock()
	refs := b.tab.entries[prefixKey(opts.Config, prof)].refs
	b.tab.mu.Unlock()
	planned := 0
	for _, c := range b.cons {
		if c.job < 0 {
			planned++
		}
	}
	if refs != 2 || planned != 0 {
		t.Errorf("plan: %d consumers and %d baselines, want 2 and 0", refs, planned)
	}
	if _, err := r.RunJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := r.prefixWarms.Load(); got != 1 {
		t.Errorf("RunJobs warmed %d prefixes, want 1", got)
	}
}
