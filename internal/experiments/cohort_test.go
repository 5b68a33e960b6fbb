package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// cohortOptions samples the sensors at 100 kHz, ten times the paper's
// rate, so a short run still takes a few dozen policy decisions.
func cohortOptions(t *testing.T, names ...string) Options {
	t.Helper()
	opts := tinyOptions(t)
	opts.Config.SettleInstructions = 600_000
	opts.Config.Sensors.SampleRate = 100_000
	opts.Benchmarks = nil
	for _, name := range names {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		opts.Benchmarks = append(opts.Benchmarks, p)
	}
	return opts
}

// mimic decides like its inner policy, except from decision number after
// on, where it asks for a quarter more fetch gating.
type mimic struct {
	dtm.Policy
	after, n int
}

func (m *mimic) Sample(r, dt float64) dtm.Decision {
	m.n++
	d := m.Policy.Sample(r, dt)
	if m.n >= m.after {
		d.GateFrac += 0.25
	}
	return d
}

// lateFactory is FG that diverges at decision number after.
func lateFactory(cfg core.Config, after int) PolicyFactory {
	fg := FGPolicy(cfg)
	return PolicyFactory{Name: "FG-late", New: func() (dtm.Policy, error) {
		p, err := fg.New()
		return &mimic{Policy: p, after: after}, err
	}}
}

// decisions counts the policy decisions of a lone FG run of prof.
func decisions(t *testing.T, cfg core.Config, prof trace.Profile, insts uint64) int {
	t.Helper()
	p, err := FGPolicy(cfg).New()
	if err != nil {
		t.Fatal(err)
	}
	m := &mimic{Policy: p, after: 1 << 30}
	sim, err := core.New(cfg, prof, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(insts); err != nil {
		t.Fatal(err)
	}
	return m.n
}

// TestCohortsMatchSolo is the cohort differential: every Result of a
// RunJobs batch, whose jobs share simulations as cohorts, must equal field
// for field the Result of a fresh core.New + RunContext of the same job.
// It covers Fig. 4's four policies, local toggling (a VectorPolicy), no
// DTM and an FG that diverges only at its next-to-last decision, under
// DVS-stall and ideal DVS, on gzip (hot: DTM runs start clamped to the
// trigger) and gcc (cool: nothing acts, so its jobs follow the baseline).
func TestCohortsMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~30 simulations")
	}
	opts := cohortOptions(t, "gzip", "gcc")
	opts.Workers = 2
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	none := PolicyFactory{Name: "none", New: func() (dtm.Policy, error) { return dtm.None(), nil }}
	var jobs []Job
	var lates [][2]int // indices of an FG job and its FG-late twin
	for _, stall := range []bool{true, false} {
		cfg := opts.Config
		cfg.DVSStall = stall
		for _, p := range opts.Benchmarks {
			n := decisions(t, cfg, p, opts.Instructions)
			if n < 10 {
				t.Fatalf("%s: only %d decisions; the late divergence is not late", p.Name, n)
			}
			for _, f := range []PolicyFactory{FGPolicy(cfg), DVSPolicy(cfg), PIHybPolicy(cfg, stall),
				HybPolicy(cfg, stall), LocalTogglingPolicy(cfg), none, lateFactory(cfg, n-1)} {
				jobs = append(jobs, Job{Config: cfg, Profile: p, Factory: f})
			}
			lates = append(lates, [2]int{len(jobs) - 7, len(jobs) - 1})
		}
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	consumers := int64(len(jobs) + len(opts.Benchmarks))
	if got := r.sims.Load(); got >= consumers {
		t.Errorf("RunJobs ran %d simulations for %d consumers; no cohort shared", got, consumers)
	}

	type run struct {
		job Job
		got core.Result
	}
	var runs []run
	for i, j := range jobs {
		runs = append(runs, run{j, ms[i].Result})
	}
	for _, p := range opts.Benchmarks {
		got, err := r.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{Job{Config: opts.Config, Profile: p, Factory: none}, got})
	}
	fresh := make([]core.Result, len(runs))
	err = forEach(context.Background(), 2, make([]string, len(runs)), nil, func(ctx context.Context, i int) error {
		pol, err := runs[i].job.Factory.New()
		if err != nil {
			return err
		}
		sim, err := core.New(runs[i].job.Config, runs[i].job.Profile, pol)
		if err != nil {
			return err
		}
		fresh[i], err = sim.RunContext(ctx, opts.Instructions)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lates {
		fg, late := ms[l[0]].Result, ms[l[1]].Result
		late.Policy = fg.Policy
		if fg == late {
			t.Errorf("%s (stall=%v): FG-late ran like FG; its divergence had no effect",
				jobs[l[0]].Profile.Name, jobs[l[0]].Config.DVSStall)
		}
	}
	acted := make(map[string]bool)
	for i, rn := range runs {
		if rn.got != fresh[i] {
			t.Errorf("%s/%s (stall=%v): batch result differs from a lone run\nlone:  %+v\nbatch: %+v",
				rn.job.Profile.Name, rn.job.Factory.Name, rn.job.Config.DVSStall, fresh[i], rn.got)
		}
		if rn.got.DVSSwitches > 0 || rn.got.AvgGate > 0 {
			acted[rn.job.Profile.Name] = true
		}
	}
	if !acted["gzip"] {
		t.Error("no policy acted on gzip; the differential does not cover DTM")
	}
}

// TestInstrumentedJobRunsAlone: a job with a tracer or a profiler never
// joins a cohort, and with a metrics registry on the runner no job does.
func TestInstrumentedJobRunsAlone(t *testing.T) {
	opts := cohortOptions(t, "gzip")
	prof := opts.Benchmarks[0]
	traced, profiled := opts.Config, opts.Config
	traced.Tracer = obs.NewMetricsTracer(obs.NewRegistry())
	profiled.Profiler = obs.NewStageProfiler(0)
	jobs := []Job{
		{Config: opts.Config, Profile: prof, Factory: FGPolicy(opts.Config)},
		{Config: traced, Profile: prof, Factory: FGPolicy(opts.Config)},
		{Config: opts.Config, Profile: prof, Factory: DVSPolicy(opts.Config)},
		{Config: profiled, Profile: prof, Factory: FGPolicy(opts.Config)},
	}
	cohorts := func(r *Runner) [][]int {
		b := r.planBatch(jobs)
		defer b.abandonBaselines()
		b.mu.Lock()
		defer b.mu.Unlock()
		var out [][]int
		for _, c := range b.cohorts {
			var members []int
			for _, m := range c.members {
				members = append(members, b.cons[m].job)
			}
			out = append(out, members)
		}
		return out
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline (-1) leads jobs 0 and 2; jobs 1 and 3 run alone.
	if got, want := cohorts(r), [][]int{{-1, 0, 2}, {1}, {3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("cohorts = %v, want %v", got, want)
	}
	opts.Metrics = obs.NewRegistry()
	r, err = NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cohorts(r), [][]int{{-1}, {0}, {1}, {2}, {3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("with metrics: cohorts = %v, want %v", got, want)
	}
}

// TestCohortWorkersAgree: one worker and eight give identical
// measurements, and neither deadlocks on a baseline, whether it keeps its
// jobs as followers (gcc) or they detach at start-up (gzip is clamped).
func TestCohortWorkersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the batch twice")
	}
	run := func(workers int) []Measurement {
		t.Helper()
		opts := cohortOptions(t, "gzip", "gcc", "art")
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Job
		for _, f := range []PolicyFactory{FGPolicy(opts.Config), DVSPolicy(opts.Config), PIHybPolicy(opts.Config, true)} {
			for _, p := range opts.Benchmarks {
				jobs = append(jobs, Job{Config: opts.Config, Profile: p, Factory: f})
			}
		}
		ms, err := r.RunJobs(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("8 workers differ from 1:\n1: %+v\n8: %+v", serial, parallel)
	}
}

// bomb is FG that panics on its third decision.
type bomb struct {
	dtm.Policy
	n int
}

func (b *bomb) Sample(r, dt float64) dtm.Decision {
	if b.n++; b.n == 3 {
		panic("bomb went off")
	}
	return b.Policy.Sample(r, dt)
}

// boomFactory builds bombs around FG policies; armed counts the builds.
func boomFactory(cfg core.Config, armed *atomic.Int64) PolicyFactory {
	return PolicyFactory{Name: "Boom", New: func() (dtm.Policy, error) {
		armed.Add(1)
		p, err := FGPolicy(cfg).New()
		return &bomb{Policy: p}, err
	}}
}

// TestRunJobsContainsPanics: a policy that panics inside a cohort of
// well-behaved jobs fails the batch with an error naming that job, not the
// cohort's leader, and the process survives. With a registry the panic is
// counted in pool.job_panics.
func TestRunJobsContainsPanics(t *testing.T) {
	opts := cohortOptions(t, "gcc")
	var armed atomic.Int64
	boom := boomFactory(opts.Config, &armed)
	prof := opts.Benchmarks[0]
	jobs := []Job{
		{Config: opts.Config, Profile: prof, Factory: FGPolicy(opts.Config)},
		{Config: opts.Config, Profile: prof, Factory: boom},
		{Config: opts.Config, Profile: prof, Factory: DVSPolicy(opts.Config)},
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		o := opts
		o.Metrics = reg
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RunJobs(context.Background(), jobs)
		if err == nil {
			t.Fatal("RunJobs succeeded despite a panicking policy")
		}
		msg := err.Error()
		if !strings.Contains(msg, "gcc/Boom panicked: bomb went off") || !strings.Contains(msg, "(*bomb).Sample") {
			t.Errorf("error does not name the panicking job and its stack:\n%s", msg)
		}
		if reg != nil {
			if n := reg.Counter(obs.MetricPoolJobPanics).Value(); n != 1 {
				t.Errorf("pool.job_panics = %d, want 1", n)
			}
		}
	}
	// Once as a follower, once alone; then once alone with the registry.
	if n := armed.Load(); n != 3 {
		t.Errorf("Boom built %d times, want 3", n)
	}
}
