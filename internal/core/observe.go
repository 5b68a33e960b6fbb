package core

import (
	"hybriddtm/internal/obs"
	"hybriddtm/internal/sensor"
	"hybriddtm/internal/stats"
)

// boundary is a point in a run at which the loop calls its observer.
type boundary uint8

const (
	runBegin  boundary = iota // initial state set, before the first step
	stepBegin                 // the CPU executes next
	executed                  // power is computed next
	powered                   // l.pvec is set; the thermal model steps next
	stepped                   // temps, wall and steps have advanced
	switching                 // a pending DVS switch applies next
	switched                  // it applied; l.from is the level it left
	sampling                  // the sensors are read next
	read                      // l.readings is set; the policy decides next
	decided                   // l.dec is set; followers and actuation follow
	actuated                  // l.want, l.from and l.switched are set
	runEnd                    // the run ends, finished or not
)

// observer watches a run at the loop's boundaries. It reads the loop and
// changes nothing in it but l.prof.
type observer interface {
	at(b boundary, l *loop)
}

// instruments is the observer behind Config.Tracer and Config.Profiler: it
// emits the run's event stream and attributes the loop's phases to
// profiler stages. Each half may be absent.
type instruments struct {
	tr     obs.Tracer
	sp     *obs.StageProfiler
	stepSP *obs.StageProfiler // sp while it samples the current step

	// The hottest true temperature's side of each threshold and the last
	// actuation emitted, so the stream carries changes only.
	aboveTrigger, aboveEmergency bool
	prevGate                     float64
	prevClockStop                bool
}

// newInstruments returns the observer for a tracer and a profiler, nil if
// both are nil.
func newInstruments(tr obs.Tracer, sp *obs.StageProfiler) observer {
	if tr != nil || sp != nil {
		return &instruments{tr: tr, sp: sp}
	}
	return nil
}

// at is an allocation-free root of its own: the loop reaches it through an
// interface, which the static call graph does not follow.
//
//dtmlint:allocfree
func (in *instruments) at(b boundary, l *loop) {
	tr := in.tr
	switch b {
	case runBegin:
		if tr != nil {
			s := l.s
			blocks := make([]string, s.fp.NumBlocks())
			for i := range blocks {
				blocks[i] = s.fp.Block(i).Name
			}
			tr.Begin(obs.Meta{
				Benchmark: s.prof.Name, Policy: s.policy.Name(), Blocks: blocks,
				ThermalStepCycles: s.cfg.ThermalStepCycles, SamplePeriod: l.samplePeriod,
				Trigger: s.cfg.Trigger, Emergency: s.cfg.EmergencyThreshold,
			})
		}
	case stepBegin:
		in.stepSP = nil
		if sp := in.sp; sp != nil {
			if sp.StepTick() {
				in.stepSP = sp
				sp.Begin(obs.StageCPUCommit) // opens the cpu pipeline window
			}
		}
		l.prof = in.stepSP
	case executed:
		if sp := in.stepSP; sp != nil {
			sp.EndCPU()
			sp.Begin(obs.StagePowerCompute)
		}
	case powered:
		in.end(obs.StagePowerCompute)
		in.start(obs.StageThermalStep)
	case stepped:
		in.end(obs.StageThermalStep)
		if tr != nil {
			// The step, and the thresholds the hottest true temperature
			// crossed with it.
			hi, ht := l.s.tm.MaxBlockTemp()
			in.start(obs.StageTraceEmit)
			cyc := l.s.core.Cycle()
			tr.Emit(&obs.Event{Kind: obs.KindStep, Time: l.wall, Cycle: cyc, Step: l.steps, Measuring: l.measuring,
				Dt: l.dt, Temps: l.temps, Power: l.pvec, MaxTemp: ht, Hottest: hi,
				Level: l.level, GateFrac: l.gates.Fetch, ClockStop: l.clockStop,
				Stalled: l.stalled, StallRemaining: l.stallRemaining})
			if above := ht > l.s.cfg.Trigger; above != in.aboveTrigger {
				in.aboveTrigger = above
				tr.Emit(&obs.Event{Kind: obs.KindCrossing, Time: l.wall, Cycle: cyc, Step: l.steps,
					Measuring: l.measuring, Threshold: "trigger", Above: above, MaxTemp: ht})
			}
			if above := ht > l.s.cfg.EmergencyThreshold; above != in.aboveEmergency {
				in.aboveEmergency = above
				tr.Emit(&obs.Event{Kind: obs.KindCrossing, Time: l.wall, Cycle: cyc, Step: l.steps,
					Measuring: l.measuring, Threshold: "emergency", Above: above, MaxTemp: ht})
			}
			in.end(obs.StageTraceEmit)
		}
	case switching:
		in.start(obs.StageDVFSActuate)
	case switched:
		if tr != nil {
			tr.Emit(&obs.Event{Kind: obs.KindActuation, Time: l.wall, Cycle: l.s.core.Cycle(), Step: l.steps,
				Measuring: l.measuring, Level: l.level, FromLevel: l.from, SwitchApplied: true,
				GateFrac: l.gates.Fetch, ClockStop: l.clockStop})
		}
		in.end(obs.StageDVFSActuate)
	case sampling:
		in.start(obs.StageSensorSample)
	case read:
		in.end(obs.StageSensorSample)
		in.start(obs.StagePolicyDecide)
	case decided:
		in.end(obs.StagePolicyDecide)
		if tr != nil {
			in.start(obs.StageTraceEmit)
			cyc := l.s.core.Cycle()
			tr.Emit(&obs.Event{Kind: obs.KindSensor, Time: l.wall, Cycle: cyc, Step: l.steps,
				Measuring: l.measuring, Readings: l.readings, MaxReading: sensor.Max(l.readings)})
			tr.Emit(&obs.Event{Kind: obs.KindDecision, Time: l.wall, Cycle: cyc, Step: l.steps,
				Measuring: l.measuring, DecGate: l.dec.GateFrac, DecLevel: l.dec.Level, DecClockStop: l.dec.ClockStop})
			in.end(obs.StageTraceEmit)
		}
		// The rest of the sample, followers and actuation included, is the
		// dvfs.actuate window.
		in.start(obs.StageDVFSActuate)
	case actuated:
		if tr != nil && (l.switched || !stats.SameFloat(l.gates.Fetch, in.prevGate) || l.clockStop != in.prevClockStop) {
			in.prevGate, in.prevClockStop = l.gates.Fetch, l.clockStop
			tr.Emit(&obs.Event{Kind: obs.KindActuation, Time: l.wall, Cycle: l.s.core.Cycle(), Step: l.steps,
				Measuring: l.measuring, GateFrac: l.gates.Fetch, ClockStop: l.clockStop,
				Level: l.want, FromLevel: l.from, SwitchStarted: l.switched,
				SwitchStalls: l.switched && l.s.cfg.DVSStall, StallRemaining: l.stallRemaining})
		}
		in.end(obs.StageDVFSActuate)
	case runEnd:
		if tr != nil {
			tr.End()
		}
	}
}

// start and end open and close a stage window on a profiled step.
func (in *instruments) start(st obs.Stage) {
	if sp := in.stepSP; sp != nil {
		sp.Begin(st)
	}
}

func (in *instruments) end(st obs.Stage) {
	if sp := in.stepSP; sp != nil {
		sp.End(st)
	}
}
