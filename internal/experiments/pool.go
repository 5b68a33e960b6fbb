// Worker pool for the experiment engine. Every (benchmark, policy, config)
// simulation is independent, so sweeps fan out over a bounded pool of
// goroutines; the determinism guarantee is that results are written into a
// slot chosen by submission index, never by completion order, which makes
// output byte-identical across any Workers setting.
package experiments

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hybriddtm/internal/core"
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
// Jobs share warm prefixes (see core.Prefix): the call computes the prefix
// of each distinct (profile, CPU config, WarmupCycles, InitCycles) once,
// for its jobs and for the not-yet-cached baselines they resolve, and
// starts every one of those simulations from a copy of it. Jobs are
// dispatched grouped by prefix: a worker stays on its group until all of
// the group's jobs have started, then starts the next unstarted group, and
// once none is left joins the running group with the most jobs left. So at
// most Workers prefixes are live at once, and no worker waits on another
// worker's prefix or baseline while an unstarted group remains. Neither
// the grouping nor the worker count changes any result.
func (r *Runner) RunJobs(ctx context.Context, jobs []Job) ([]Measurement, error) {
	out := make([]Measurement, len(jobs))
	prog := r.newProgress(len(jobs))
	tab, q := r.planPrefixes(jobs)
	err := pullEach(ctx, r.workers, len(jobs), q.take, func(ctx context.Context, i int) error {
		if r.metrics != nil {
			g := r.metrics.Gauge(obs.MetricPoolActive)
			g.Add(1)
			defer g.Add(-1)
		}
		m, err := r.runJob(ctx, jobs[i], tab)
		if err != nil {
			return err
		}
		out[i] = m
		prog.done()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// planPrefixes builds the prefix table of one RunJobs call and the queue
// that dispatches its jobs grouped by prefix. Each key's consumers are its
// jobs plus, for every benchmark whose baseline is not yet cached, that
// baseline (keyed by the runner's base config and the benchmark's first
// job's profile). Groups are ordered by first submission, except that a
// group whose benchmark already has an earlier group moves to the back:
// its first job would wait on that group's baseline.
func (r *Runner) planPrefixes(jobs []Job) (*prefixTable, *groupQueue) {
	tab := newPrefixTable(r.warmPrefix)
	groupOf := make(map[string]int)
	planned := make(map[string]bool)
	var groups, later [][]int
	r.mu.Lock()
	for i, job := range jobs {
		key := prefixKey(job.Config, job.Profile)
		tab.addConsumer(key)
		g, ok := groupOf[key]
		if !ok {
			g = len(groups)
			groupOf[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
		name := job.Profile.Name
		if _, cached := r.baselines[name]; !cached && !planned[name] {
			planned[name] = true
			tab.addBaseline(name, prefixKey(r.opts.Config, job.Profile))
		}
	}
	r.mu.Unlock()
	seen := make(map[string]bool)
	q := &groupQueue{}
	for _, g := range groups {
		name := jobs[g[0]].Profile.Name
		if seen[name] {
			later = append(later, g)
			continue
		}
		seen[name] = true
		q.groups = append(q.groups, g)
	}
	q.groups = append(q.groups, later...)
	return tab, q
}

// warmPrefix computes one warm prefix for the batch's prefix table.
func (r *Runner) warmPrefix(ctx context.Context, cfg core.Config, prof trace.Profile) (*core.Prefix, error) {
	r.prefixWarms.Add(1)
	return core.WarmPrefix(ctx, cfg, prof)
}

// groupQueue hands out a RunJobs batch's job indices grouped by warm
// prefix (see RunJobs for the policy).
type groupQueue struct {
	mu      sync.Mutex
	groups  [][]int // guarded-by: mu  (unstarted job indices per group)
	started int     // guarded-by: mu  (groups[:started] have started)
}

// take returns the next job for a worker whose previous job came from
// group *cur (-1 before its first job) and updates *cur.
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

// forEach runs fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines. The first error cancels the derived context, stops handing
// out new indices, and is returned once all in-flight calls have finished.
// When several calls fail concurrently the error of whichever recorded
// first is kept (errors here are deterministic per index, so which one
// surfaces does not affect reproducibility of successful runs).
func forEach(ctx context.Context, workers, n int, fn func(context.Context, int) error) error {
	var next atomic.Int64
	return pullEach(ctx, workers, n, func(*int) (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}, fn)
}

// pullEach is forEach over the n indices that pull hands out: each worker
// calls pull for its next index, passing the same worker-local cursor
// (initially -1) every time, until pull reports none is left.
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
