package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// fig4Options is the determinism test's configuration: the full nine-
// benchmark suite at the smallest budget the coupled loop accepts without
// degenerate windows, so the 90 simulations (baseline + four policies per
// benchmark, twice) stay fast enough for -race runs.
func fig4Options() Options {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 100_000
	cfg.InitCycles = 100_000
	cfg.SettleInstructions = 100_000
	opts.Config = cfg
	return opts
}

// TestFig4ParallelDeterminism runs the full Fig4 suite serially and on
// eight workers and asserts measurement-for-measurement equality — any
// hidden shared state in policies, trace generators, sensors or the RC
// thermal solver would show up as a diff here (and as a -race report).
func TestFig4ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 90 simulations")
	}
	run := func(workers int) Fig4Result {
		t.Helper()
		opts := fig4Options()
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Fig4(context.Background(), r, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel Fig4 differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSuiteParallelMatchesSerial is the cheap per-measurement variant of
// the determinism guarantee: every field of every Measurement must match,
// not just the aggregated figures.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	opts := tinyOptions(t)
	gcc, _ := trace.ByName("gcc")
	art, _ := trace.ByName("art")
	opts.Benchmarks = append(opts.Benchmarks, gcc, art)
	run := func(workers int) []Measurement {
		t.Helper()
		o := opts
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := r.Suite(DVSPolicy(o.Config))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel suite differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial[0].Benchmark != "gzip" || serial[1].Benchmark != "gcc" || serial[2].Benchmark != "art" {
		t.Errorf("submission order not preserved: %v", []string{serial[0].Benchmark, serial[1].Benchmark, serial[2].Benchmark})
	}
}

// TestBaselineSingleflight hammers the baseline cache from 16 goroutines.
// Exactly one simulation must run (counted via the progress log) and every
// caller must see the identical result. Run under -race this also proves
// the cache and logger are data-race free.
func TestBaselineSingleflight(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOptions(t)
	opts.Log = &buf
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := opts.Benchmarks[0]

	const goroutines = 16
	results := make([]core.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Baseline(prof)
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("goroutine %d saw a different baseline: %+v vs %+v", i, results[i], results[0])
		}
	}
	if n := strings.Count(buf.String(), "msg=run "); n != 1 {
		t.Errorf("baseline simulated %d times, want exactly 1 (singleflight)\nlog:\n%s", n, buf.String())
	}
}

// TestRunJobsFirstErrorCancels submits a batch where one factory fails and
// asserts the batch returns that error (not a later one, not a partial
// result slice).
func TestRunJobsFirstErrorCancels(t *testing.T) {
	opts := tinyOptions(t)
	opts.Workers = 4
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("factory exploded")
	good := DVSPolicy(opts.Config)
	bad := PolicyFactory{Name: "bad", New: func() (dtm.Policy, error) { return nil, boom }}
	jobs := []Job{
		{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: bad},
		{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: good},
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Errorf("RunJobs error = %v, want %v", err, boom)
	}
	if ms != nil {
		t.Errorf("RunJobs returned measurements alongside an error: %+v", ms)
	}
}

// TestRunJobsObservesCancellation verifies a pre-canceled context aborts
// before any simulation runs, and that cancellation surfaces as ctx.Err().
func TestRunJobsObservesCancellation(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOptions(t)
	opts.Log = &buf
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: DVSPolicy(opts.Config)}}
	if _, err := r.RunJobs(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunJobs with canceled context = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("simulations ran despite canceled context:\n%s", buf.String())
	}
	// A canceled baseline must not poison the cache: a live context after
	// the canceled one recomputes and succeeds.
	if _, err := r.Baseline(opts.Benchmarks[0]); err != nil {
		t.Errorf("baseline after canceled attempt: %v", err)
	}
}

// TestForEachOrdering checks the pool helper covers every index exactly
// once for worker counts below, at, and above the job count.
func TestForEachOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 32} {
		var mu sync.Mutex
		seen := make(map[int]int)
		err := forEach(context.Background(), workers, 10, func(ctx context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < 10; i++ {
			if seen[i] != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, seen[i])
			}
		}
	}
}

// TestWorkersDefault checks worker-count resolution and validation.
func TestWorkersDefault(t *testing.T) {
	opts := tinyOptions(t)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers() < 1 {
		t.Errorf("default Workers() = %d, want >= 1", r.Workers())
	}
	opts.Workers = 3
	if r, err = NewRunner(opts); err != nil || r.Workers() != 3 {
		t.Errorf("Workers=3 gave (%v, %v)", r.Workers(), err)
	}
	opts.Workers = -1
	if _, err = NewRunner(opts); err == nil {
		t.Error("accepted negative worker count")
	}
}

// TestSharedRegistryUnderPool hammers one metrics Registry from a
// 16-worker pool. Run under -race this proves the lock-free counters,
// gauges and histograms (and the per-run MetricsTracers feeding them) are
// safe to share across every goroutine of a sweep; the count assertions
// prove no increment is lost to a racy read-modify-write.
func TestSharedRegistryUnderPool(t *testing.T) {
	reg := obs.NewRegistry()
	opts := tinyOptions(t)
	opts.Workers = 16
	opts.Metrics = reg
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: DVSPolicy(opts.Config)}
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != n {
		t.Fatalf("got %d measurements, want %d", len(ms), n)
	}

	// n pool jobs plus the singleflighted baseline run feed the registry.
	if got := reg.Counter(obs.MetricPoolJobs).Value(); got != n {
		t.Errorf("%s = %d, want %d", obs.MetricPoolJobs, got, n)
	}
	if got := reg.Counter(obs.MetricRuns).Value(); got != n+1 {
		t.Errorf("%s = %d, want %d", obs.MetricRuns, got, n+1)
	}
	if got := reg.Histogram(obs.MetricPoolJobSeconds).Count(); got != n {
		t.Errorf("%s count = %d, want %d", obs.MetricPoolJobSeconds, got, n)
	}
	if got := reg.Counter(obs.MetricThermalSteps).Value(); got <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricThermalSteps, got)
	}
	// All workers have exited, so the active-worker gauge must be back to 0.
	if got := reg.Gauge(obs.MetricPoolActive).Value(); got != 0 {
		t.Errorf("%s = %v, want 0 after pool drain", obs.MetricPoolActive, got)
	}
}

// countingWarm is a prefix-table warm function for the table's own tests:
// it counts calls and defers the outcome to fn.
type countingWarm struct {
	mu    sync.Mutex
	calls int
	fn    func(ctx context.Context, call int) (*core.Prefix, error)
}

func (w *countingWarm) warm(ctx context.Context, _ core.Config, _ trace.Profile) (*core.Prefix, error) {
	w.mu.Lock()
	w.calls++
	n := w.calls
	w.mu.Unlock()
	return w.fn(ctx, n)
}

func (w *countingWarm) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.calls
}

// TestPrefixTableCanceledOwner: a warm-up owner canceled mid-flight must
// not leave the key's other consumers hanging or failed; one of them
// recomputes the prefix under its own context.
func TestPrefixTableCanceledOwner(t *testing.T) {
	started := make(chan struct{})
	w := &countingWarm{fn: func(ctx context.Context, call int) (*core.Prefix, error) {
		if call == 1 {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return new(core.Prefix), nil
	}}
	tab := newPrefixTable(w.warm)
	tab.addConsumer("k")
	tab.addConsumer("k")

	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, _, err := tab.acquire(ownerCtx, "k", core.Config{}, trace.Profile{})
		ownerErr <- err
	}()
	<-started
	type outcome struct {
		p    *core.Prefix
		take bool
		err  error
	}
	waiter := make(chan outcome, 1)
	go func() {
		p, take, _, err := tab.acquire(context.Background(), "k", core.Config{}, trace.Profile{})
		waiter <- outcome{p, take, err}
	}()
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled owner got %v, want context.Canceled", err)
	}
	select {
	case got := <-waiter:
		if got.err != nil || got.p == nil {
			t.Errorf("waiter after a canceled owner: prefix %v, err %v", got.p, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after the owner was canceled")
	}
	if n := w.count(); n != 2 {
		t.Errorf("warm ran %d times, want 2 (the canceled attempt and the retry)", n)
	}
}

// TestPrefixTableWarmErrorFailsAll: a deterministic warm-up error is
// computed once and fails every consumer of the key with that error.
func TestPrefixTableWarmErrorFailsAll(t *testing.T) {
	boom := errors.New("warm-up exploded")
	release := make(chan struct{})
	w := &countingWarm{fn: func(context.Context, int) (*core.Prefix, error) {
		<-release
		return nil, boom
	}}
	tab := newPrefixTable(w.warm)
	const consumers = 4
	for i := 0; i < consumers; i++ {
		tab.addConsumer("k")
	}
	errs := make(chan error, consumers)
	for i := 0; i < consumers; i++ {
		go func() {
			_, _, _, err := tab.acquire(context.Background(), "k", core.Config{}, trace.Profile{})
			errs <- err
		}()
	}
	close(release)
	for i := 0; i < consumers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("consumer got %v, want %v", err, boom)
		}
	}
	if n := w.count(); n != 1 {
		t.Errorf("warm ran %d times, want 1", n)
	}
	if len(tab.entries) != 0 {
		t.Errorf("%d entries left after every consumer was served", len(tab.entries))
	}
}

// TestPrefixTableLastConsumerTakes: consumers before the last only read the
// prefix; the last takes it, but only after every earlier restore is done,
// and the entry is then dropped.
func TestPrefixTableLastConsumerTakes(t *testing.T) {
	w := &countingWarm{fn: func(context.Context, int) (*core.Prefix, error) { return new(core.Prefix), nil }}
	tab := newPrefixTable(w.warm)
	for i := 0; i < 3; i++ {
		tab.addConsumer("k")
	}
	ctx := context.Background()
	p1, take1, done1, err1 := tab.acquire(ctx, "k", core.Config{}, trace.Profile{})
	p2, take2, done2, err2 := tab.acquire(ctx, "k", core.Config{}, trace.Profile{})
	if err1 != nil || err2 != nil || take1 || take2 || p1 != p2 {
		t.Fatalf("early consumers: take %v/%v, same prefix %v, errs %v/%v", take1, take2, p1 == p2, err1, err2)
	}
	taken := make(chan bool, 1)
	go func() {
		p3, take3, _, err := tab.acquire(ctx, "k", core.Config{}, trace.Profile{})
		taken <- err == nil && take3 && p3 == p1
	}()
	done1()
	select {
	case <-taken:
		t.Fatal("last consumer took the prefix while a restore was still in progress")
	case <-time.After(50 * time.Millisecond):
	}
	done2()
	if ok := <-taken; !ok {
		t.Error("last consumer did not take the shared prefix")
	}
	if n := w.count(); n != 1 {
		t.Errorf("warm ran %d times, want 1", n)
	}
	if len(tab.entries) != 0 {
		t.Errorf("%d entries left after the last consumer", len(tab.entries))
	}
}

// TestGroupQueueDispatch: workers start distinct groups first and stay on
// their group; only when no group is unstarted do they join the running
// group with the most jobs left.
func TestGroupQueueDispatch(t *testing.T) {
	q := &groupQueue{groups: [][]int{{0, 1, 2}, {3, 4, 5, 6}, {7}}}
	a, b := -1, -1
	for _, step := range []struct {
		cur  *int
		want int
	}{
		{&a, 0}, // a starts group 0
		{&b, 3}, // b starts group 1
		{&a, 1}, // a stays on group 0
		{&a, 2},
		{&a, 7}, // group 0 exhausted: a starts the last unstarted group
		{&a, 4}, // none unstarted: a joins group 1, the largest left
		{&b, 5},
		{&a, 6},
	} {
		if got, ok := q.take(step.cur); !ok || got != step.want {
			t.Fatalf("take = %d, %v; want %d", got, ok, step.want)
		}
	}
	if _, ok := q.take(&b); ok {
		t.Error("take after every job was handed out")
	}
}
