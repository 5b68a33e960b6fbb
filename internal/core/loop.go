package core

import (
	"context"
	"errors"
	"fmt"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/power"
	"hybriddtm/internal/sensor"
	"hybriddtm/internal/stats"
)

// Run executes until the given number of instructions commit after warmup,
// and returns the run summary.
func (s *Simulator) Run(instructions uint64) (Result, error) {
	return s.RunContext(context.Background(), instructions)
}

// RunContext is Run with cancellation: the context is checked between the
// warmup/init phases and once per thermal step (10 000 cycles of simulated
// execution, i.e. a few microseconds of real time), so concurrent drivers
// can abort a sweep promptly on the first error. A canceled run returns
// ctx.Err() and leaves no partial Result.
//
//dtmlint:allocfree
func (s *Simulator) RunContext(ctx context.Context, instructions uint64) (Result, error) {
	return s.run(ctx, instructions, newInstruments(s.cfg.Tracer, s.cfg.Profiler))
}

// run is RunContext with the run watched by o (nil: unobserved).
func (s *Simulator) run(ctx context.Context, instructions uint64, o observer) (Result, error) {
	if instructions == 0 {
		return Result{}, errors.New("core: zero instruction target")
	}
	if s.ran {
		return Result{}, errors.New("core: Simulator.Run called twice; build a fresh Simulator per run")
	}
	s.ran = true
	if err := s.initSteadyState(ctx); err != nil { //dtmlint:allow allocguard one-time init before the measured loop
		return Result{}, err
	}
	l := s.newLoop(instructions, o)
	l.at(runBegin)
	defer l.at(runEnd)
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		done, err := l.step()
		if err != nil {
			return Result{}, err
		}
		if done {
			return l.result(), nil
		}
	}
}

// loop is the state of one run of the coupled loop. Each thermal step runs
// the phases execute, heat, account, applyPending, sample (once per sensor
// sample due) and settle, and calls the observer, if any, at the
// boundaries between them.
type loop struct {
	s   *Simulator
	o   observer // nil: unobserved
	res Result   // accumulates the measured window

	instructions uint64 // measured-window length
	samplePeriod float64
	vector       dtm.VectorPolicy // s.policy, when it samples every sensor

	// Actuators. A stalling DVS switch is in flight while stallRemaining
	// > 0; an ideal-mode one to pendingLevel (-1: none) applies at
	// pendingAt.
	level, pendingLevel       int
	gates                     cpu.Gates
	clockStop                 bool
	stallRemaining, pendingAt float64

	// Simulated seconds since the settle phase began, and steps taken.
	wall, nextSample float64
	steps            uint64

	// target is the committed count that ends the settle phase, then the
	// measured window.
	measuring                           bool
	target, startCommitted, startCycles uint64
	startWall                           float64
	hottest                             int // block of res.MaxTemp

	// The current step, and the profiler the observer set at stepBegin to
	// attribute its pipeline stages (nil: not profiled).
	op            dvfs.OperatingPoint
	dt, clockFrac float64
	stalled       bool
	prof          *obs.StageProfiler

	// The current sample: the leader's decision, its level clamped to the
	// ladder, and the level before the switch it started, if it did.
	dec        dtm.Decision
	want, from int
	switched   bool

	act                             cpu.Activity
	activity, pvec, temps, readings []float64
}

// newLoop starts a loop on the simulator's current state.
func (s *Simulator) newLoop(instructions uint64, o observer) loop {
	committed := s.core.Committed()
	l := loop{
		s: s, o: o,
		res:            Result{Benchmark: s.prof.Name, Policy: s.policy.Name(), MaxTemp: -1e9},
		instructions:   instructions,
		samplePeriod:   s.cfg.Sensors.SamplePeriod(),
		pendingLevel:   -1,
		measuring:      s.cfg.SettleInstructions == 0,
		target:         committed + s.cfg.SettleInstructions,
		startCommitted: committed,
		startCycles:    s.core.Cycle(),
	}
	if l.measuring {
		l.target = committed + instructions
	}
	l.nextSample = l.samplePeriod
	l.vector, _ = s.policy.(dtm.VectorPolicy)
	l.temps = s.tm.BlockTemps(nil)
	return l
}

// at calls the observer, if any, at boundary b.
func (l *loop) at(b boundary) {
	if l.o != nil {
		l.o.at(b, l)
	}
}

// step advances the loop by one thermal step and reports whether the
// measured window is complete.
func (l *loop) step() (bool, error) {
	if err := l.execute(); err != nil {
		return false, err
	}
	if err := l.heat(); err != nil {
		return false, err
	}
	l.account()
	if err := l.applyPending(); err != nil {
		return false, err
	}
	for l.wall >= l.nextSample {
		if err := l.sample(); err != nil {
			return false, err
		}
	}
	return l.settle()
}

// execute runs the CPU for one thermal step under the current actuators.
func (l *loop) execute() error {
	l.at(stepBegin)
	cycles := uint64(l.s.cfg.ThermalStepCycles)
	l.op = l.s.ladder.Point(l.level)
	l.dt = float64(cycles) / l.op.F
	l.clockFrac, l.stalled = 1, false
	l.act.Reset()
	switch {
	case l.clockStop:
		// Global clock stopped: no execution, no dynamic power at all.
		l.clockFrac = 0
		l.act.Cycles = 0
	case l.stallRemaining > 0:
		// DVS transition with pipeline stalled: clock runs (idle power),
		// nothing executes.
		l.stalled = true
		if l.stallRemaining < l.dt {
			l.dt = l.stallRemaining
		}
		l.stallRemaining -= l.dt
	default:
		if _, err := l.s.core.RunGatedProfiled(cycles, l.gates, &l.act, l.prof); err != nil {
			return err
		}
	}
	l.at(executed)
	return nil
}

// heat maps the step's activity to per-block power and advances the
// thermal model, and the simulated clock, by dt under it.
func (l *loop) heat() error {
	s := l.s
	var err error
	if l.activity, err = l.act.BlockActivity(s.fp, l.activity); err != nil {
		return err
	}
	if l.pvec, err = s.pm.Compute(l.pvec, l.activity, l.clockFrac, l.op.V, l.op.F, l.temps); err != nil {
		return err
	}
	l.at(powered)
	if err := s.tm.Step(l.pvec, l.dt); err != nil {
		return err
	}
	l.temps = s.tm.BlockTemps(l.temps)
	l.wall += l.dt
	l.steps++
	l.at(stepped)
	return nil
}

// account adds the step to the measured window, on true temperatures.
func (l *loop) account() {
	if !l.measuring {
		return
	}
	cfg, res := &l.s.cfg, &l.res
	hi, ht := l.s.tm.MaxBlockTemp()
	if ht > res.MaxTemp {
		res.MaxTemp, l.hottest = ht, hi
	}
	if ht > cfg.EmergencyThreshold {
		res.EmergencyTime += l.dt
	}
	if ht > cfg.Trigger {
		res.TimeAboveTrigger += l.dt
	}
	res.EnergyJ += power.Total(l.pvec) * l.dt
	res.AvgGate += l.gates.Fetch * l.dt
	if l.level > 0 {
		res.TimeAtLowV += l.dt
	}
	if l.clockStop {
		res.ClockStopTime += l.dt
	}
}

// applyPending makes a scheduled ideal-mode DVS switch live once its
// transition time has passed.
func (l *loop) applyPending() error {
	if !(l.pendingLevel >= 0 && l.wall >= l.pendingAt) {
		return nil
	}
	l.at(switching)
	l.from = l.level
	if err := l.setLevel(l.pendingLevel); err != nil {
		return err
	}
	l.pendingLevel = -1
	l.at(switched)
	return nil
}

// sample reads the sensors, lets the policy and its followers decide, and
// actuates the policy's decision.
func (l *loop) sample() error {
	s := l.s
	l.nextSample += l.samplePeriod
	l.at(sampling)
	var err error
	if l.readings, err = s.bank.Read(l.readings, l.temps); err != nil {
		return err
	}
	l.at(read)
	if l.vector != nil {
		l.dec = l.vector.SampleVector(l.readings, l.samplePeriod)
	} else {
		l.dec = s.policy.Sample(sensor.Max(l.readings), l.samplePeriod)
	}
	l.at(decided)
	if len(s.followers) > 0 {
		s.sampleFollowers(l.readings, l.samplePeriod, l.dec)
	}
	if err := l.actuate(); err != nil {
		return err
	}
	l.at(actuated)
	return nil
}

// actuate applies the decision: gates and clock stop at once, a new DVS
// level by starting a switch unless one is already in flight.
func (l *loop) actuate() error {
	s, d := l.s, &l.dec
	l.gates = cpu.Gates{Fetch: d.GateFrac, Int: d.IntGate, FP: d.FPGate, Mem: d.MemGate}
	l.clockStop = d.ClockStop
	l.want, l.from, l.switched = s.clampLevel(d.Level), l.level, false
	if l.want == l.level || l.pendingLevel >= 0 || !stats.SameFloat(l.stallRemaining, 0) {
		return nil
	}
	l.res.DVSSwitches++
	l.switched = true
	if !s.cfg.DVSStall {
		l.pendingLevel, l.pendingAt = l.want, l.wall+s.cfg.DVSSwitchTime
		return nil
	}
	// The pipeline stalls through the transition; the new setting is live
	// afterwards.
	l.stallRemaining = s.cfg.DVSSwitchTime
	return l.setLevel(l.want)
}

// setLevel moves the operating point, and with it the core's clock, to
// level.
func (l *loop) setLevel(level int) error {
	l.level = level
	return l.s.core.SetFrequencyRatio(l.s.ladder.Point(level).F / l.s.ladder.Nominal().F)
}

// settle opens the measured window once the settle instructions have
// committed, and reports whether the window's own have.
func (l *loop) settle() (bool, error) {
	s := l.s
	committed := s.core.Committed()
	if !l.measuring && committed >= l.target {
		l.measuring = true
		l.startCommitted, l.startCycles, l.startWall = committed, s.core.Cycle(), l.wall
		l.target = committed + l.instructions
	}
	if l.measuring && committed >= l.target {
		return true, nil
	}
	if l.wall > s.cfg.MaxWallTime {
		return false, fmt.Errorf("core: %s/%s exceeded MaxWallTime %v s without finishing (clock stuck?)",
			s.prof.Name, s.policy.Name(), s.cfg.MaxWallTime)
	}
	return false, nil
}

// result summarizes the measured window.
func (l *loop) result() Result {
	s, res := l.s, l.res
	res.Instructions = s.core.Committed() - l.startCommitted
	res.Cycles = s.core.Cycle() - l.startCycles
	res.WallTime = l.wall - l.startWall
	if res.MaxTemp < -1e8 {
		// Degenerate window (target smaller than one thermal step): report
		// the current state rather than the sentinel.
		l.hottest, res.MaxTemp = s.tm.MaxBlockTemp()
	}
	res.HottestBlock = s.fp.Block(l.hottest).Name
	if res.WallTime > 0 {
		res.AvgPower = res.EnergyJ / res.WallTime
		res.AvgGate /= res.WallTime
	}
	if res.Cycles > 0 {
		res.AvgIPC = float64(res.Instructions) / float64(res.Cycles)
	}
	return res
}
