// Package core couples the substrates into the paper's full evaluation
// loop (§3): the cycle-level CPU runs in 10 000-cycle thermal steps whose
// average per-block power drives the HotSpot RC model; sensors are sampled
// at 10 kHz and feed the DTM policy; the policy's actuator requests (fetch
// gating, DVS level, clock stop) are applied with their hardware costs —
// in particular the 10 µs DVS switch, either stalling the pipeline
// ("stall") or merely delaying the new setting ("ideal", §4.1).
//
// Simulations start from the per-workload thermal steady state and run a
// cache/predictor warm-up before statistics are tracked, mirroring the
// paper's methodology.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/power"
	"hybriddtm/internal/sensor"
	"hybriddtm/internal/trace"
)

// Config assembles a full system. Zero values are not usable; start from
// DefaultConfig.
type Config struct {
	CPU     cpu.Config
	Package hotspot.PackageConfig
	Tech    dvfs.Technology
	Ladder  *dvfs.Ladder // DVS operating points; nil means binary at VMinFrac
	Specs   []power.BlockSpec
	Leakage power.LeakageConfig
	Sensors sensor.Config

	// ThermalStepCycles is the power-averaging interval (§3: 10 000 cycles
	// keeps sampling error below 0.1% with <1% simulation overhead).
	ThermalStepCycles int

	// DVSSwitchTime is the voltage/frequency transition time; DVSStall
	// selects whether the pipeline stalls through it ("stall") or keeps
	// executing at the old setting until it completes ("ideal").
	DVSSwitchTime float64
	DVSStall      bool

	// EmergencyThreshold is the true junction temperature that must never
	// be exceeded (85 °C per the 2001 ITRS, §3). Trigger is the sensor
	// reading at which DTM responds (81.8 °C: 85 minus worst-case sensor
	// error minus response margin).
	EmergencyThreshold float64
	Trigger            float64

	// VMinFrac is the low-voltage setting as a fraction of nominal used
	// when Ladder is nil (0.85: the largest value that eliminates thermal
	// violations with this package, §4.1).
	VMinFrac float64

	// WarmupCycles of full-detail execution before statistics are tracked
	// (the paper uses 300 M; scale down for quick runs).
	WarmupCycles uint64

	// InitCycles of warmed execution measure the activity used to seed the
	// thermal steady state.
	InitCycles uint64

	// MaxWallTime aborts a run that simulates more than this many seconds,
	// guarding against policies that stop the clock and never release it.
	MaxWallTime float64

	// Tracer, when non-nil, receives the run's typed event stream (thermal
	// steps, sensor samples, policy decisions, actuator changes, threshold
	// crossings — see internal/obs). Events start after warm-up, i.e. the
	// settle phase is included and flagged via Event.Measuring. Tracer and
	// Profiler reach the loop through one observer built per run; with both
	// nil there is none, and each phase boundary costs one nil check and no
	// allocation (<2% overhead, gated by the root BenchmarkTracer* benches).
	// A Tracer instance belongs to one run; concurrent simulations must not
	// share one (share a metrics Registry via per-run MetricsTracers
	// instead).
	Tracer obs.Tracer

	// Profiler, when non-nil, attributes coupled-loop wall time,
	// invocation counts and allocation deltas to named stages (see
	// obs.StageProfiler), through the same observer as Tracer; the nil
	// case stays allocation-free and within ~1% of baseline (gated by the
	// root BenchmarkStageProfiler* pair). A StageProfiler belongs to one
	// run; concurrent simulations must not share one.
	Profiler *obs.StageProfiler

	// SettleInstructions are executed with the DTM policy live before
	// statistics are tracked. The paper's measurement windows begin after
	// 300 M warm-up cycles during which DTM already operates, so
	// controllers are wound to their operating point when accounting
	// starts; this reproduces that. Counting the settle phase in
	// instructions (not seconds) makes every policy's measurement window
	// cover exactly the same dynamic instructions, so slowdown differences
	// are purely the policy's doing.
	SettleInstructions uint64
}

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{
		CPU:     cpu.DefaultConfig(),
		Package: hotspot.DefaultPackage(),
		Tech:    dvfs.Default130nm(),
		Specs:   power.EV6Spec(),
		Leakage: power.DefaultLeakage(),
		Sensors: sensor.DefaultConfig(),

		ThermalStepCycles: 10_000,
		DVSSwitchTime:     10e-6,
		DVSStall:          true,

		EmergencyThreshold: 85,
		Trigger:            81.8,
		VMinFrac:           0.85,

		WarmupCycles:       2_000_000,
		InitCycles:         1_000_000,
		MaxWallTime:        5,
		SettleInstructions: 4_000_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Package.Validate(); err != nil {
		return err
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.Leakage.Validate(); err != nil {
		return err
	}
	if err := c.Sensors.Validate(); err != nil {
		return err
	}
	if c.ThermalStepCycles <= 0 {
		return fmt.Errorf("core: thermal step %d must be positive", c.ThermalStepCycles)
	}
	if c.DVSSwitchTime < 0 {
		return fmt.Errorf("core: negative DVS switch time %v", c.DVSSwitchTime)
	}
	if !(c.Trigger < c.EmergencyThreshold) {
		return fmt.Errorf("core: trigger %v must be below emergency %v", c.Trigger, c.EmergencyThreshold)
	}
	if c.Ladder == nil && !(c.VMinFrac > 0 && c.VMinFrac < 1) {
		return fmt.Errorf("core: VMinFrac %v outside (0,1)", c.VMinFrac)
	}
	if !(c.MaxWallTime > 0) {
		return fmt.Errorf("core: MaxWallTime %v must be positive", c.MaxWallTime)
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Benchmark string
	Policy    string

	Instructions uint64
	Cycles       uint64
	WallTime     float64 // seconds of simulated execution (after warmup)

	MaxTemp          float64 // hottest true block temperature seen
	HottestBlock     string
	EmergencyTime    float64 // seconds with any true block temp above the emergency threshold
	TimeAboveTrigger float64 // seconds with the hottest true temp above the trigger

	AvgPower      float64 // W averaged over the run
	EnergyJ       float64
	AvgIPC        float64
	AvgGate       float64 // time-weighted fetch-gating fraction
	TimeAtLowV    float64 // seconds below nominal voltage
	DVSSwitches   int
	ClockStopTime float64 // seconds with the global clock stopped
}

// Violated reports whether the run ever exceeded the emergency threshold.
func (r Result) Violated() bool { return r.EmergencyTime > 0 }

// Simulator is a one-shot coupled simulation: construct with New (or
// NewFromPrefix), call Run once.
type Simulator struct {
	cfg    Config
	fp     *floorplan.Floorplan
	core   *cpu.Core
	pm     *power.Model
	tm     *hotspot.Model
	bank   *sensor.Bank
	ladder *dvfs.Ladder
	policy dtm.Policy
	prof   trace.Profile

	// activity is the init window's per-block activity. nil until the warm
	// prefix has run; NewFromPrefix sets it from the prefix.
	activity []float64

	// followers ride along with policy (see Follow).
	followers []follower

	ran bool
}

// follower is one policy attached by Follow.
type follower struct {
	policy   dtm.Policy
	vector   dtm.VectorPolicy // policy, when it samples every sensor
	attached bool
}

// New assembles a simulator for one benchmark profile under one policy.
// A nil policy means no DTM.
func New(cfg Config, prof trace.Profile, policy dtm.Policy) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	c, err := newCPU(cfg.CPU, prof)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, prof, policy, c)
}

// newCPU builds a cold core running prof's synthetic stream.
func newCPU(cfg cpu.Config, prof trace.Profile) (*cpu.Core, error) {
	gen, err := trace.NewGenerator(prof)
	if err != nil {
		return nil, err
	}
	return cpu.New(cfg, gen)
}

// assemble builds the rest of a simulator around its CPU.
func assemble(cfg Config, prof trace.Profile, policy dtm.Policy, c *cpu.Core) (*Simulator, error) {
	if policy == nil {
		policy = dtm.None()
	}
	fp := floorplan.EV6()
	pm, err := power.NewModel(fp, cfg.Tech, cfg.Specs, cfg.Leakage)
	if err != nil {
		return nil, err
	}
	tm, err := hotspot.NewModel(fp, cfg.Package)
	if err != nil {
		return nil, err
	}
	bank, err := sensor.NewBank(fp.NumBlocks(), cfg.Sensors)
	if err != nil {
		return nil, err
	}
	ladder := cfg.Ladder
	if ladder == nil {
		ladder, err = dvfs.Binary(cfg.Tech, cfg.VMinFrac)
		if err != nil {
			return nil, err
		}
	}
	return &Simulator{
		cfg:    cfg,
		fp:     fp,
		core:   c,
		pm:     pm,
		tm:     tm,
		bank:   bank,
		ladder: ladder,
		policy: policy,
		prof:   prof,
	}, nil
}

// Prefix is the policy-free start of a run: the CPU after WarmupCycles of
// warm-up and InitCycles of init execution, plus the init window's
// per-block activity. It depends only on the profile, the CPU config and
// the two cycle counts; the power, package, sensor and policy settings
// enter afterwards, when RunContext solves the leakage fixed point and
// applies the trigger clamp. So every run that shares those four inputs
// can start from one Prefix instead of recomputing it.
type Prefix struct {
	prof                     trace.Profile
	cpuCfg                   cpu.Config
	warmupCycles, initCycles uint64

	core     *cpu.Core // nil once a simulator has taken it
	activity []float64 // read-only once built
}

// WarmPrefix runs the warm-up and init phases of cfg for prof. The context
// is checked between phases; a canceled warm-up returns ctx.Err().
func WarmPrefix(ctx context.Context, cfg Config, prof trace.Profile) (*Prefix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newCPU(cfg.CPU, prof)
	if err != nil {
		return nil, err
	}
	activity, err := warm(ctx, c, cfg, floorplan.EV6())
	if err != nil {
		return nil, err
	}
	return &Prefix{
		prof: prof, cpuCfg: cfg.CPU, warmupCycles: cfg.WarmupCycles, initCycles: cfg.InitCycles,
		core: c, activity: activity,
	}, nil
}

// NewFromPrefix is New for a run that starts from p instead of running
// warm-up and init itself; its results equal those of New with the same
// arguments and p's profile. cfg must carry the CPU config and cycle
// counts p was warmed with.
//
// Without take the simulator restores a copy of p's core into a core of
// its own and only reads p, so concurrent calls may share p. With take it
// adopts p's core instead of copying it, and p cannot be used again; the
// caller must make sure no other call is still reading p.
func NewFromPrefix(cfg Config, p *Prefix, policy dtm.Policy, take bool) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.core == nil {
		return nil, errors.New("core: prefix already taken by another simulator")
	}
	if cfg.CPU != p.cpuCfg || cfg.WarmupCycles != p.warmupCycles || cfg.InitCycles != p.initCycles {
		return nil, errors.New("core: config does not match the prefix's CPU config and warm-up")
	}
	c := p.core
	if take {
		p.core = nil
	} else {
		var err error
		if c, err = newCPU(cfg.CPU, p.prof); err != nil {
			return nil, err
		}
		if err := c.CopyFrom(p.core); err != nil {
			return nil, err
		}
	}
	s, err := assemble(cfg, p.prof, policy, c)
	if err != nil {
		return nil, err
	}
	s.activity = p.activity
	return s, nil
}

// Follow attaches policies as followers of the simulator's own policy, the
// leader. At every sensor sample a follower sees the readings the leader
// sees and decides as well; the run only ever applies the leader's
// decision. A follower stays attached while its decision has the same
// effect as the leader's: the same fetch and domain gates, clock stop and
// DVS level (clamped to the ladder). The first sample where it differs
// detaches it, and it is not sampled again. At start-up a follower whose
// dtm.IsNone differs from the leader's detaches if the start is clamped to
// the trigger, since only DTM runs are clamped. So a follower that stayed
// attached had exactly the run it would have had alone: Run's Result is
// its Result too, except for Policy. A nil policy is no DTM.
//
// Call Follow before Run; Attached reports which followers stayed.
func (s *Simulator) Follow(policies ...dtm.Policy) error {
	if s.ran {
		return errors.New("core: Follow after Run")
	}
	for _, p := range policies {
		if p == nil {
			p = dtm.None()
		}
		vp, _ := p.(dtm.VectorPolicy)
		s.followers = append(s.followers, follower{policy: p, vector: vp, attached: true})
	}
	return nil
}

// Attached reports, for each follower in Follow order, whether it stayed
// attached through the run.
func (s *Simulator) Attached() []bool {
	out := make([]bool, len(s.followers))
	for i, f := range s.followers {
		out[i] = f.attached
	}
	return out
}

// sampleFollowers lets every attached follower decide on the readings the
// leader just decided on, and detaches those whose decision has a
// different effect than lead.
//
//dtmlint:allocfree
func (s *Simulator) sampleFollowers(readings []float64, dt float64, lead dtm.Decision) {
	maxR, haveMax := 0.0, false
	for i := range s.followers {
		f := &s.followers[i]
		if !f.attached {
			continue
		}
		var d dtm.Decision
		if f.vector != nil {
			d = f.vector.SampleVector(readings, dt)
		} else {
			if !haveMax {
				maxR, haveMax = sensor.Max(readings), true
			}
			d = f.policy.Sample(maxR, dt)
		}
		f.attached = s.sameEffect(d, lead)
	}
}

// sameEffect reports whether decisions a and b drive the actuators
// identically. Gates compare bit for bit.
func (s *Simulator) sameEffect(a, b dtm.Decision) bool {
	return sameBits(a.GateFrac, b.GateFrac) && sameBits(a.IntGate, b.IntGate) &&
		sameBits(a.FPGate, b.FPGate) && sameBits(a.MemGate, b.MemGate) &&
		a.ClockStop == b.ClockStop && s.clampLevel(a.Level) == s.clampLevel(b.Level)
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// clampLevel limits a requested DVS level to the ladder.
func (s *Simulator) clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if n := s.ladder.NumPoints(); level >= n {
		return n - 1
	}
	return level
}

// Floorplan returns the floorplan in use.
func (s *Simulator) Floorplan() *floorplan.Floorplan { return s.fp }

// Thermal returns the thermal model (read-only use intended).
func (s *Simulator) Thermal() *hotspot.Model { return s.tm }

// Core returns the CPU model (read-only use intended).
func (s *Simulator) Core() *cpu.Core { return s.core }

// Sensors returns the sensor bank, exposed for failure-injection studies
// (see sensor.Bank.SetStuck).
func (s *Simulator) Sensors() *sensor.Bank { return s.bank }

// warm is the policy-free half of the paper's §3 startup: caches and
// predictor are first warmed in full detail (WarmupCycles), then
// InitCycles of warmed execution measure the workload's activity, which
// it returns per block of fp.
func warm(ctx context.Context, c *cpu.Core, cfg Config, fp *floorplan.Floorplan) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := c.RunGated(cfg.WarmupCycles, cpu.Gates{}, nil); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var act cpu.Activity
	if _, err := c.RunGated(cfg.InitCycles, cpu.Gates{}, &act); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return act.BlockActivity(fp, nil)
}

// initSteadyState runs the warm prefix unless the simulator was built from
// one, then sets the thermal model to the power/temperature fixed point of
// the init window's activity (leakage depends on temperature, so the
// steady state is solved iteratively).
//
// For runs with an active DTM policy the initial state is additionally
// clamped so no block starts above the trigger: a chip whose DTM has been
// running would have been held there, never at the unmanaged steady state.
func (s *Simulator) initSteadyState(ctx context.Context) error {
	if s.activity == nil {
		activity, err := warm(ctx, s.core, s.cfg, s.fp)
		if err != nil {
			return err
		}
		s.activity = activity
	}
	activity := s.activity
	nom := s.ladder.Nominal()
	n := s.fp.NumBlocks()
	scaled := make([]float64, n)
	temps := make([]float64, n)

	// solve computes the power/temperature fixed point with the
	// activity-dependent dynamic power scaled by alpha (leakage depends on
	// temperature, hence the iteration) and returns the hottest expected
	// sensor reading (true temperature plus fixed offset).
	var p []float64
	solve := func(alpha float64) (float64, error) {
		for i := range scaled {
			scaled[i] = activity[i] * alpha
		}
		for i := range temps {
			temps[i] = 60 // starting guess for the fixed point
		}
		for iter := 0; iter < 12; iter++ {
			var err error
			p, err = s.pm.Compute(p, scaled, 1, nom.V, nom.F, temps)
			if err != nil {
				return 0, err
			}
			if err := s.tm.SteadyStateInto(temps, p); err != nil {
				return 0, err
			}
		}
		maxR := temps[0] + s.bank.Offset(0)
		for i := 1; i < n; i++ {
			if r := temps[i] + s.bank.Offset(i); r > maxR {
				maxR = r
			}
		}
		return maxR, nil
	}

	reading, err := solve(1)
	if err != nil {
		return err
	}
	if err := s.tm.Init(p); err != nil {
		return err
	}
	if !(reading > s.cfg.Trigger) {
		return nil
	}
	// Only DTM runs are clamped, so a follower on the other side of that
	// line would start from another state.
	for i := range s.followers {
		f := &s.followers[i]
		if dtm.IsNone(f.policy) != dtm.IsNone(s.policy) {
			f.attached = false
		}
	}
	if !dtm.IsNone(s.policy) {
		// The package (spreader, sink) sits at the workload's unmanaged
		// steady state — it is quasi-static over simulated intervals and a
		// hot application keeps it hot whether or not DTM throttles the
		// core (§3: "over these time scales, the heat sink temperature
		// changes little"). The silicon, however, responds in milliseconds
		// and a chip under DTM would be held at the trigger, so the die
		// nodes start shifted down to the DTM-held level.
		s.tm.ShiftBlocks(s.cfg.Trigger - reading)
	}
	return nil
}
