package core

import (
	"context"
	"math"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/power"
)

// energyBalance is a test observer checking the thermal model against its
// own physics, not against a golden: over every thermal step the heat put
// in, ΣP·dt, equals the heat stored, Σᵢ Cᵢ·Δθᵢ, plus the heat lost to
// ambient, dt·Σᵢ g_amb,ᵢ·θᵢ(t+dt). Backward Euler satisfies this exactly
// once summed over the nodes (G's internal conductances cancel), so a
// residual beyond rounding means power went missing between the power
// model and the RC network, or a step used another dt than the one
// accounted. Rounding has a floor: each θᵢ is stored to machine epsilon,
// so Σᵢ Cᵢ·θᵢ is known to about eps·Σᵢ Cᵢ·|θᵢ| ≈ 2.6e-13 J, ≈3e-9 of a
// step's ≈9e-5 J input. The residual is held to 1e-9 of the input plus
// four times that floor (measured: ≈1.3 times it).
type energyBalance struct {
	rise  []float64 // every node's rise over ambient before the step
	dts   map[float64]bool
	steps int
	worst float64 // largest residual seen, in units of the tolerance
}

func (e *energyBalance) at(b boundary, l *loop) {
	tm := l.s.tm
	switch b {
	case runBegin:
		e.rise = make([]float64, tm.NumNodes())
		for i := range e.rise {
			e.rise[i], _, _ = tm.NodeRC(i)
		}
	case stepped:
		in := power.Total(l.pvec) * l.dt
		var stored, lost, held float64
		for i := range e.rise {
			rise, c, gAmb := tm.NodeRC(i)
			stored += c * (rise - e.rise[i])
			lost += gAmb * rise
			held += c * math.Abs(rise)
			e.rise[i] = rise
		}
		lost *= l.dt
		tol := 1e-9*in + 4*0x1p-52*held
		if r := math.Abs(in-stored-lost) / tol; !(r <= e.worst) {
			e.worst = r
		}
		e.dts[l.dt] = true
		e.steps++
	}
}

// TestThermalEnergyBalance holds the per-step energy balance over whole
// runs of every policy family on gzip, with the thresholds lowered so DTM
// engages from the start: fetch gating changes the power, DVS the power
// and dt (stall steps are cut to the remaining switch time, ideal switches
// apply between samples).
func TestThermalEnergyBalance(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmupCycles = 200_000
	cfg.InitCycles = 200_000
	cfg.SettleInstructions = 500_000
	cfg.Trigger = 70
	cfg.EmergencyThreshold = 76
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name  string
		stall bool
		mk    func() (dtm.Policy, error)
	}{
		{"none", true, func() (dtm.Policy, error) { return nil, nil }},
		{"fg", true, func() (dtm.Policy, error) { return dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3) }},
		{"dvs", true, func() (dtm.Policy, error) { return dtm.DVSBinary(cfg.Trigger, ladder) }},
		{"dvs-ideal", false, func() (dtm.Policy, error) { return dtm.DVSBinary(cfg.Trigger, ladder) }},
		{"pi-hyb", true, func() (dtm.Policy, error) { return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, 1.0/3, ladder) }},
		{"hyb", true, func() (dtm.Policy, error) { return dtm.Hyb(cfg.Trigger, 0.4, 1.0/3, ladder) }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			pol, err := p.mk()
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.DVSStall = p.stall
			sim, err := New(c, gzipProfile(t), pol)
			if err != nil {
				t.Fatal(err)
			}
			e := &energyBalance{dts: make(map[float64]bool)}
			res, err := sim.run(context.Background(), 2_000_000, e)
			if err != nil {
				t.Fatal(err)
			}
			if e.steps < 100 {
				t.Fatalf("observed %d thermal steps, want a whole run", e.steps)
			}
			if res.DVSSwitches > 0 && len(e.dts) < 2 {
				t.Errorf("%d DVS switches but a single dt: the balance never saw a switched step", res.DVSSwitches)
			}
			if e.worst > 1 {
				t.Errorf("energy balance residual %.3g times the tolerance (worst of %d steps)", e.worst, e.steps)
			}
		})
	}
}
