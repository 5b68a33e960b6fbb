package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/merit"
	"hybriddtm/internal/power"
	"hybriddtm/internal/trace"
)

// MeritStudyResult is the a-priori figure-of-merit table the paper asks
// for in §6: the cooling capability and estimated cost of each technique
// setting, computed from the physical models alone, with the analytically
// predicted FG/DVS crossover.
type MeritStudyResult struct {
	Benchmark string
	IPC       float64
	Supply    float64

	FG  []merit.Capability // one per Figure-3 duty cycle
	DVS merit.Capability

	// PredictedCrossoverGate is the deepest gating whose merit still beats
	// DVS — compare with the empirical Figure 3a crossover.
	PredictedCrossoverGate float64
}

// MeritStudies runs MeritStudy for several benchmarks on a worker pool
// (Options.Workers, defaulting to GOMAXPROCS) and returns results in input
// order; the first failure cancels the remaining studies.
func MeritStudies(ctx context.Context, opts Options, names []string) ([]MeritStudyResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]MeritStudyResult, len(names))
	jobs := make([]string, len(names))
	for i, name := range names {
		jobs[i] = name + "/merit"
	}
	err := forEach(ctx, workers, jobs, opts.Metrics, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := MeritStudy(opts, names[i])
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeritStudy characterizes one benchmark's operating point with the CPU
// model alone (no thermal coupling), then evaluates the figure of merit
// for fetch gating across the Figure-3 duty-cycle axis and for the binary
// DVS low setting.
func MeritStudy(opts Options, benchName string) (MeritStudyResult, error) {
	prof, ok := trace.ByName(benchName)
	if !ok {
		return MeritStudyResult{}, fmt.Errorf("experiments: unknown benchmark %q", benchName)
	}
	cfg := opts.Config

	// Measure the unthrottled operating point.
	measure := func(gate float64) (cpu.Activity, error) {
		gen, err := trace.NewGenerator(prof)
		if err != nil {
			return cpu.Activity{}, err
		}
		c, err := cpu.New(cfg.CPU, gen)
		if err != nil {
			return cpu.Activity{}, err
		}
		if _, err := c.RunGated(cfg.WarmupCycles, cpu.Gates{}, nil); err != nil {
			return cpu.Activity{}, err
		}
		var act cpu.Activity
		if _, err := c.RunGated(cfg.InitCycles, cpu.Gates{Fetch: gate}, &act); err != nil {
			return cpu.Activity{}, err
		}
		return act, nil
	}
	free, err := measure(0)
	if err != nil {
		return MeritStudyResult{}, err
	}
	// Deep gating binds the front end; throughput there reveals the
	// effective fetch supply: IPC(g) ≈ supply·(1−g).
	bound, err := measure(0.5)
	if err != nil {
		return MeritStudyResult{}, err
	}
	supply := bound.IPC() / 0.5
	if supply < free.IPC() {
		supply = free.IPC() // already front-end bound without gating
	}

	fp := floorplan.EV6()
	pm, err := power.NewModel(fp, cfg.Tech, cfg.Specs, cfg.Leakage)
	if err != nil {
		return MeritStudyResult{}, err
	}
	tm, err := hotspot.NewModel(fp, cfg.Package)
	if err != nil {
		return MeritStudyResult{}, err
	}
	activity, err := free.BlockActivity(fp, nil)
	if err != nil {
		return MeritStudyResult{}, err
	}
	in := merit.Input{
		Floorplan:   fp,
		Power:       pm,
		Thermal:     tm,
		Tech:        cfg.Tech,
		Activity:    activity,
		IPC:         free.IPC(),
		FetchSupply: supply,
	}

	out := MeritStudyResult{Benchmark: benchName, IPC: in.IPC, Supply: supply}
	gates := make([]float64, 0, len(DutyCycleAxis))
	for _, duty := range DutyCycleAxis {
		gates = append(gates, 1/duty)
		c, err := merit.FetchGate(in, 1/duty)
		if err != nil {
			return MeritStudyResult{}, err
		}
		out.FG = append(out.FG, c)
	}
	out.DVS, err = merit.DVS(in, cfg.VMinFrac)
	if err != nil {
		return MeritStudyResult{}, err
	}
	out.PredictedCrossoverGate, err = merit.PredictCrossover(in, cfg.VMinFrac, gates)
	if err != nil {
		return MeritStudyResult{}, err
	}
	return out, nil
}

// String renders the figure-of-merit table.
func (m MeritStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure of merit (a-priori, §6 future work) for %s: IPC %.2f, fetch supply %.2f\n",
		m.Benchmark, m.IPC, m.Supply)
	fmt.Fprintf(&b, "%-14s %8s %9s %10s\n", "technique", "ΔT/°C", "slowdown", "merit")
	mer := func(v float64) string {
		if v > 1e100 {
			return "free"
		}
		return fmt.Sprintf("%10.2f", v)
	}
	for i, c := range m.FG {
		fmt.Fprintf(&b, "FG duty %-6g %8.2f %9.3f %10s\n",
			DutyCycleAxis[i], c.DeltaT, c.Slowdown, mer(c.Merit))
	}
	fmt.Fprintf(&b, "DVS @%.0f%%      %8.2f %9.3f %10s\n",
		100*m.DVS.Setting, m.DVS.DeltaT, m.DVS.Slowdown, mer(m.DVS.Merit))
	fmt.Fprintf(&b, "predicted crossover gate: %.3f (duty %.1f)\n",
		m.PredictedCrossoverGate, 1/m.PredictedCrossoverGate)
	return b.String()
}
