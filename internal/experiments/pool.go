// Worker pool for the experiment engine. Every (benchmark, policy, config)
// simulation is independent, so sweeps fan out over a bounded pool of
// goroutines; the determinism guarantee is that results are written into a
// slot chosen by submission index, never by completion order, which makes
// output byte-identical across any Workers setting.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// Job is one simulation request: a benchmark under a policy with a config
// override. The slowdown is always normalized against the baseline of the
// runner's base config, which is what the paper normalizes against.
type Job struct {
	Config  core.Config
	Profile trace.Profile
	Factory PolicyFactory
}

// RunJobs executes the jobs on the runner's worker pool and returns their
// measurements in submission order. The first error cancels all outstanding
// work and is returned; measurements of already-finished jobs are
// discarded.
//
// The batch plans its simulations before it runs any. Its consumers are
// the jobs plus the baseline of every benchmark not yet cached, whose
// cache entry the batch owns until it resolves it.
//
//   - Consumers that share a warm prefix (profile, CPU config,
//     WarmupCycles and InitCycles; see core.Prefix) form a group. The
//     group's prefix is computed once, and each of its simulations starts
//     from a copy.
//   - Within a group, consumers with an equal core.Config (and the batch's
//     one instruction target) form a cohort: one simulation led by the
//     first consumer, which the others follow (core.Simulator.Follow).
//     Followers still attached at the end take the leader's Result under
//     their own policy name; the others run again as a later cohort of
//     their own, from the same prefix with fresh policies. A consumer with
//     a Tracer or Profiler, or any consumer of a runner with Metrics, runs
//     alone, so its trace and profile describe its own run.
//   - Cohorts are dispatched grouped: a worker stays on its group until the
//     group has no cohort left to start, then starts the next unstarted
//     group, and once none is left joins the running group with the most
//     cohorts left. So at most Workers prefixes are live at once.
//   - No worker waits on a baseline: slowdowns are computed after every
//     simulation has run.
//   - A panic in a simulation becomes the error of the job that raised it,
//     with its stack. A cohort that panics runs its members again one by
//     one, so the panic lands on the job whose policy raised it.
//
// Neither the grouping, the cohorts nor the worker count changes any
// result: every Measurement equals the one a lone run of its job gives.
func (r *Runner) RunJobs(ctx context.Context, jobs []Job) ([]Measurement, error) {
	b := r.planBatch(jobs)
	err := pullEach(ctx, r.workers, b.planned, b.q.take, func(ctx context.Context, c int) error {
		if r.metrics != nil {
			g := r.metrics.Gauge(obs.MetricPoolActive)
			g.Add(1)
			defer g.Add(-1)
		}
		return b.runCohort(ctx, c)
	})
	b.abandonBaselines()
	if err != nil {
		return nil, err
	}
	bases := make(map[string]core.Result) // the batch's own baselines first
	for _, c := range b.cons {
		if c.base != nil {
			bases[c.prof.Name] = c.res
		}
	}
	out := make([]Measurement, len(jobs))
	for _, c := range b.cons {
		if c.job < 0 {
			continue
		}
		base, ok := bases[c.prof.Name]
		if !ok {
			if base, err = r.BaselineContext(ctx, c.prof); err != nil {
				return nil, err
			}
			bases[c.prof.Name] = base
		}
		out[c.job] = measure(jobs[c.job], c.res, base)
	}
	return out, nil
}

// batch is the plan and state of one RunJobs call.
type batch struct {
	r    *Runner
	jobs []Job
	tab  *prefixTable
	q    *groupQueue
	prog *progress

	// cons are the batch's consumers. Planning fills them; afterwards only
	// res and done change, written by the one worker whose cohort resolves
	// the consumer and read once every worker has stopped.
	cons []consumer

	planned int // cohorts planned up front

	mu      sync.Mutex
	cohorts []cohort // guarded-by: mu
}

// consumer is one simulation a batch needs: a job, or the baseline of a
// benchmark that was not cached when the batch started.
type consumer struct {
	job  int // index in the batch's jobs; -1 for a baseline
	cfg  core.Config
	prof trace.Profile
	key  string // warm-prefix key
	// base is a baseline's cache entry, owned by the batch until done.
	base *baselineEntry

	res  core.Result
	done bool
}

// cohort is one simulation of a batch: members[0] leads, the rest follow.
type cohort struct {
	group   int
	members []int // indices into batch.cons
}

// planBatch builds the consumers, prefix table, cohorts and dispatch
// queue of one RunJobs call, and claims the cache entry of every baseline
// the batch will compute. A baseline is planned from the first job of its
// benchmark and placed before that job, so it leads its cohort.
func (r *Runner) planBatch(jobs []Job) *batch {
	tab := newPrefixTable(r.warmPrefix)
	var cons []consumer
	groupOf := make(map[string]int)
	var groups [][]int // consumer indices per prefix key, in first-use order
	add := func(c consumer) {
		c.key = prefixKey(c.cfg, c.prof)
		tab.addConsumer(c.key)
		g, ok := groupOf[c.key]
		if !ok {
			g = len(groups)
			groupOf[c.key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], len(cons))
		cons = append(cons, c)
	}
	r.mu.Lock()
	for i, job := range jobs {
		name := job.Profile.Name
		if _, cached := r.baselines[name]; !cached {
			e := &baselineEntry{done: make(chan struct{})}
			r.baselines[name] = e
			add(consumer{job: -1, cfg: r.opts.Config, prof: job.Profile, base: e})
		}
		add(consumer{job: i, cfg: job.Config, prof: job.Profile})
	}
	r.mu.Unlock()

	var cohorts []cohort
	queues := make([][]int, len(groups))
	for g, members := range groups {
		var keys []string // config key of each of the group's shared cohorts
		var ids []int     // their cohort indices
		for _, m := range members {
			k := -1
			key := ""
			if cfg := cons[m].cfg; r.metrics == nil && cfg.Tracer == nil && cfg.Profiler == nil {
				key = cohortKey(cfg)
				for j := range keys {
					if keys[j] == key {
						k = ids[j]
					}
				}
			}
			if k < 0 {
				k = len(cohorts)
				cohorts = append(cohorts, cohort{group: g})
				queues[g] = append(queues[g], k)
				if key != "" {
					keys, ids = append(keys, key), append(ids, k)
				}
			}
			cohorts[k].members = append(cohorts[k].members, m)
		}
	}
	return &batch{
		r: r, jobs: jobs, tab: tab,
		q:       &groupQueue{groups: queues},
		prog:    r.newProgress(len(jobs)),
		cons:    cons,
		planned: len(cohorts),
		cohorts: cohorts,
	}
}

// cohortKey names a consumer's full config. A consumer with a tracer,
// profiler or the runner's metrics has none: it runs alone. Go syntax
// (%#v) prints floats in round-trip precision; pointers such as
// Config.Ladder compare by identity.
func cohortKey(cfg core.Config) string { return fmt.Sprintf("%#v", cfg) }

// name labels consumer m as benchmark/policy.
func (b *batch) name(m int) string {
	c := &b.cons[m]
	if c.job < 0 {
		return c.prof.Name + "/none"
	}
	return c.prof.Name + "/" + b.jobs[c.job].Factory.Name
}

// runCohort runs cohort id and resolves the consumers it served. Detached
// followers go back to the front of the cohort's group as a new cohort.
func (b *batch) runCohort(ctx context.Context, id int) error {
	b.mu.Lock()
	c := b.cohorts[id]
	b.mu.Unlock()
	start := time.Now() //dtmlint:allow detguard host-side job latency metric; never feeds Measurements
	res, names, attached, started, err := b.simulate(ctx, c.members)
	var pe *panicError
	if errors.As(err, &pe) && len(c.members) > 1 {
		// Any member's policy may have raised it: run each alone. If the
		// leader's simulation started, its prefix slot is used up.
		if started {
			b.tab.addConsumer(b.cons[c.members[0]].key)
		}
		solo := make([][]int, len(c.members))
		for k, m := range c.members {
			solo[k] = []int{m}
		}
		b.requeue(c.group, solo...)
		return nil
	}
	if err != nil {
		if pe != nil && b.r.metrics != nil {
			b.r.metrics.Counter(obs.MetricPoolJobPanics).Inc()
		}
		return err
	}
	var detached []int
	for k, m := range c.members {
		if k > 0 {
			if !attached[k-1] {
				detached = append(detached, m)
				continue
			}
			b.tab.release(b.cons[m].key)
		}
		res.Policy = names[k]
		b.finish(m, res, start)
	}
	if len(detached) > 0 {
		b.requeue(c.group, detached)
	}
	return nil
}

// simulate runs one cohort: the leader's simulation from the group's warm
// prefix, with the other members' policies following it. It returns the
// leader's Result, every member's policy name and, per follower, whether
// it stayed attached; started reports whether the leader's simulation was
// built. A panic becomes a *panicError.
func (b *batch) simulate(ctx context.Context, members []int) (res core.Result, names []string, attached []bool, started bool, err error) {
	defer contain(b.name(members[0]), nil, &err) // runCohort counts the panic once it is final
	pols := make([]dtm.Policy, len(members))
	names = make([]string, len(members))
	for k, m := range members {
		if c := &b.cons[m]; c.job >= 0 {
			if pols[k], err = b.jobs[c.job].Factory.New(); err != nil {
				return core.Result{}, nil, nil, false, err
			}
		}
		if pols[k] == nil {
			pols[k] = dtm.None()
		}
		names[k] = pols[k].Name()
	}
	lead := &b.cons[members[0]]
	sim, err := b.tab.startSim(ctx, b.r.instrument(lead.cfg), lead.prof, pols[0])
	if err != nil {
		return core.Result{}, nil, nil, false, err
	}
	started = true
	if err := sim.Follow(pols[1:]...); err != nil {
		return core.Result{}, nil, nil, true, err
	}
	b.r.sims.Add(1)
	res, err = sim.RunContext(ctx, b.r.opts.Instructions)
	return res, names, sim.Attached(), true, err
}

// finish records consumer m's Result: a baseline resolves its cache entry,
// a job keeps it for the batch's measurements.
func (b *batch) finish(m int, res core.Result, start time.Time) {
	c := &b.cons[m]
	c.res, c.done = res, true
	if c.base != nil {
		c.base.res = res
		close(c.base.done)
		b.r.baselineDone(c.prof, res)
		return
	}
	b.r.jobDone(b.jobs[c.job], res, start)
	b.prog.done()
}

// requeue puts new cohorts at the front of group g, in order.
func (b *batch) requeue(g int, cohorts ...[]int) {
	ids := make([]int, len(cohorts))
	b.mu.Lock()
	for k, members := range cohorts {
		ids[k] = len(b.cohorts)
		b.cohorts = append(b.cohorts, cohort{group: g, members: members})
	}
	b.mu.Unlock()
	b.q.push(g, ids...)
}

// abandonBaselines releases the cache entries of the baselines the batch
// planned but did not compute (it failed or was canceled first): they are
// dropped, and callers waiting on them compute the baseline themselves.
func (b *batch) abandonBaselines() {
	r := b.r
	for i := range b.cons {
		c := &b.cons[i]
		if c.base == nil || c.done {
			continue
		}
		r.mu.Lock()
		if r.baselines[c.prof.Name] == c.base {
			delete(r.baselines, c.prof.Name)
		}
		r.mu.Unlock()
		c.base.err = errAbandoned
		close(c.base.done)
	}
}

// errAbandoned resolves a baseline entry whose batch stopped before
// computing it. It wraps context.Canceled, so waiters retry.
var errAbandoned = fmt.Errorf("experiments: baseline abandoned by its batch: %w", context.Canceled)

// panicError is a panic recovered from one job's simulation.
type panicError struct {
	job   string // benchmark/policy
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("experiments: job %s panicked: %v\n%s", e.job, e.value, e.stack)
}

// contain, deferred by a function that runs one job, turns a panic in it
// into that function's error: a *panicError naming job (benchmark/policy),
// counted in reg's pool.job_panics when reg is not nil.
func contain(job string, reg *obs.Registry, err *error) {
	if v := recover(); v != nil {
		*err = &panicError{job: job, value: v, stack: debug.Stack()}
		if reg != nil {
			reg.Counter(obs.MetricPoolJobPanics).Inc()
		}
	}
}

// warmPrefix computes one warm prefix for the batch's prefix table.
func (r *Runner) warmPrefix(ctx context.Context, cfg core.Config, prof trace.Profile) (*core.Prefix, error) {
	r.prefixWarms.Add(1)
	return core.WarmPrefix(ctx, cfg, prof)
}

// groupQueue hands out a RunJobs batch's cohort indices grouped by warm
// prefix (see RunJobs for the policy).
type groupQueue struct {
	mu      sync.Mutex
	groups  [][]int // guarded-by: mu  (unstarted cohort indices per group)
	started int     // guarded-by: mu  (groups[:started] have started)
}

// take returns the next cohort for a worker whose previous cohort came
// from group *cur (-1 before its first) and updates *cur.
func (q *groupQueue) take(cur *int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	g := *cur
	if g < 0 || len(q.groups[g]) == 0 {
		g = -1
		if q.started < len(q.groups) {
			g = q.started
			q.started++
		} else {
			for k := 0; k < q.started; k++ {
				if n := len(q.groups[k]); n > 0 && (g < 0 || n > len(q.groups[g])) {
					g = k
				}
			}
			if g < 0 {
				return 0, false
			}
		}
	}
	*cur = g
	i := q.groups[g][0]
	q.groups[g] = q.groups[g][1:]
	return i, true
}

// push puts cohorts at the front of started group g, in order, so the
// worker that pushed them takes them next.
func (q *groupQueue) push(g int, ids ...int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.groups[g] = append(ids, q.groups[g]...)
}

// progress reports N/M completion with an ETA extrapolated from the mean
// job latency so far. Reporting goes through the runner's slog logger at
// Info level — human-readable when the CLIs wire stderr, silent otherwise.
type progress struct {
	log       *slog.Logger
	total     int
	completed atomic.Int64
	start     time.Time
}

func (r *Runner) newProgress(total int) *progress {
	return &progress{log: r.log, total: total, start: time.Now()} //dtmlint:allow detguard progress ETA is log-only host time
}

func (p *progress) done() {
	n := int(p.completed.Add(1))
	if p.log == nil || !p.log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	elapsed := time.Since(p.start) //dtmlint:allow detguard progress ETA is log-only host time
	eta := time.Duration(float64(elapsed) / float64(n) * float64(p.total-n)).Round(time.Second)
	p.log.Info("progress", "done", n, "total", p.total,
		"elapsed", elapsed.Round(time.Second).String(), "eta", eta.String())
}

// forEach runs fn(ctx, i) for every job i on at most `workers` goroutines.
// The first error cancels the derived context, stops handing out new
// indices, and is returned once all in-flight calls have finished. When
// several calls fail concurrently the error of whichever recorded first is
// kept (errors here are deterministic per index, so which one surfaces
// does not affect reproducibility of successful runs). A panic in fn(ctx,
// i) is contained as job i's error (see contain), so it fails the call
// instead of the process.
func forEach(ctx context.Context, workers int, jobs []string, reg *obs.Registry, fn func(context.Context, int) error) error {
	var next atomic.Int64
	n := len(jobs)
	return pullEach(ctx, workers, n, func(*int) (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}, func(ctx context.Context, i int) (err error) {
		defer contain(jobs[i], reg, &err)
		return fn(ctx, i)
	})
}

// pullEach is forEach over the indices that pull hands out: each worker
// calls pull for its next index, passing the same worker-local cursor
// (initially -1) every time, until pull reports none is left. n, the
// number of indices known up front, bounds the worker count.
func pullEach(ctx context.Context, workers, n int, pull func(cur *int) (int, bool), fn func(context.Context, int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cur := -1
			for ctx.Err() == nil {
				i, ok := pull(&cur)
				if !ok {
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err() // parent cancellation with no worker error recorded
}
