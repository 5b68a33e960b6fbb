package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
)

// TestSoloPathsContainPanics: outside RunJobs, a job whose policy panics
// while deciding (Boom) or whose factory panics while building it (Dud)
// fails with an error naming the job and carrying its stack, counted in
// pool.job_panics, on both solo paths: a forEach study, and RunJobContext
// (dtmserve's path), whose runner then keeps serving jobs.
func TestSoloPathsContainPanics(t *testing.T) {
	opts := cohortOptions(t, "gcc")
	prof := opts.Benchmarks[0]
	var armed atomic.Int64
	dud := PolicyFactory{Name: "Dud", New: func() (dtm.Policy, error) { panic("no policy today") }}
	cases := []struct {
		factory      PolicyFactory
		value, frame string
	}{
		{boomFactory(opts.Config, &armed), "bomb went off", "(*bomb).Sample"},
		{dud, "no policy today", "TestSoloPathsContainPanics"},
	}
	for _, c := range cases {
		job := Job{Config: opts.Config, Profile: prof, Factory: c.factory}
		reg := obs.NewRegistry()
		o := opts
		o.Metrics = reg
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		study := forEach(context.Background(), 1, []string{"gcc/" + c.factory.Name}, reg, func(ctx context.Context, _ int) error {
			pol, err := c.factory.New()
			if err != nil {
				return err
			}
			sim, err := core.New(opts.Config, prof, pol)
			if err != nil {
				return err
			}
			_, err = sim.RunContext(ctx, opts.Instructions)
			return err
		})
		_, solo := r.RunJobContext(context.Background(), job)
		for _, err := range []error{study, solo} {
			if msg := fmt.Sprint(err); !strings.Contains(msg, "gcc/"+c.factory.Name+" panicked: "+c.value) || !strings.Contains(msg, c.frame) {
				t.Errorf("error does not name the job, its panic and the stack:\n%s", msg)
			}
		}
		if n := reg.Counter(obs.MetricPoolJobPanics).Value(); n != 2 {
			t.Errorf("%s: pool.job_panics = %d, want 2", c.factory.Name, n)
		}
		job.Factory = FGPolicy(opts.Config)
		if _, err := r.RunJobContext(context.Background(), job); err != nil {
			t.Errorf("job after the panic: %v", err)
		}
	}
}
