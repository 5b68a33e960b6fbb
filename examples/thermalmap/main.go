// Thermalmap: drive the substrates directly — CPU model, power model and
// thermal model, without the coupled Simulator — and render the evolution
// of per-block temperature as a text heatmap. This is the raw §3 evaluation
// loop: 10 000-cycle thermal steps, per-block power from measured activity,
// leakage feeding back on temperature.
//
//	go run ./examples/thermalmap [-ms T] [benchmark]
package main

import (
	"flag"
	"fmt"
	"log"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/power"
	"hybriddtm/internal/trace"
)

const (
	stepCycles = 10_000
	rowEveryMS = 0.5
)

func main() {
	totalMS := flag.Float64("ms", 8.0, "simulated milliseconds to render")
	flag.Parse()
	name := "art"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	prof, ok := trace.ByName(name)
	if !ok {
		log.Fatalf("unknown benchmark %q (have %v)", name, trace.BenchmarkNames())
	}

	fp := floorplan.EV6()
	tech := dvfs.Default130nm()

	gen, err := trace.NewGenerator(prof)
	if err != nil {
		log.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), gen)
	if err != nil {
		log.Fatal(err)
	}
	pm, err := power.NewModel(fp, tech, power.EV6Spec(), power.DefaultLeakage())
	if err != nil {
		log.Fatal(err)
	}
	tm, err := hotspot.NewModel(fp, hotspot.DefaultPackage())
	if err != nil {
		log.Fatal(err)
	}

	// Warm caches, measure activity, seed the thermal steady state.
	if _, err := core.RunGated(2_000_000, cpu.Gates{}, nil); err != nil {
		log.Fatal(err)
	}
	var act cpu.Activity
	if _, err := core.RunGated(1_000_000, cpu.Gates{}, &act); err != nil {
		log.Fatal(err)
	}
	activity, err := act.BlockActivity(fp, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Leakage depends on temperature, so iterate power and steady state to
	// the fixed point before initializing.
	temps0 := make([]float64, fp.NumBlocks())
	for i := range temps0 {
		temps0[i] = 60
	}
	var p []float64
	for iter := 0; iter < 8; iter++ {
		p, err = pm.Compute(p, activity, 1, tech.VNominal, tech.FNominal, temps0)
		if err != nil {
			log.Fatal(err)
		}
		if err := tm.SteadyStateInto(temps0, p); err != nil {
			log.Fatal(err)
		}
	}
	if err := tm.Init(p); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s: block temperatures over %.2g ms (no DTM)\n", prof.Name, *totalMS)
	fmt.Printf("scale: '.'<70  ':'70-75  '-'75-80  '+'80-82  '*'82-85  '#'>85 °C\n\n")
	fmt.Printf("%7s", "t/ms")
	for i := 0; i < fp.NumBlocks(); i++ {
		fmt.Printf(" %7.7s", fp.Block(i).Name)
	}
	fmt.Println()

	dt := float64(stepCycles) / tech.FNominal
	temps := tm.BlockTemps(nil)
	nextRow := 0.0
	for tm.Time() < *totalMS*1e-3 {
		act.Reset()
		if _, err := core.RunGated(stepCycles, cpu.Gates{}, &act); err != nil {
			log.Fatal(err)
		}
		activity, err = act.BlockActivity(fp, activity)
		if err != nil {
			log.Fatal(err)
		}
		p, err = pm.Compute(p, activity, 1, tech.VNominal, tech.FNominal, temps)
		if err != nil {
			log.Fatal(err)
		}
		if err := tm.Step(p, dt); err != nil {
			log.Fatal(err)
		}
		temps = tm.BlockTemps(temps)

		if tm.Time()*1e3 >= nextRow {
			nextRow += rowEveryMS
			fmt.Printf("%7.2f", tm.Time()*1e3)
			for _, t := range temps {
				fmt.Printf(" %4.1f %s", t, glyph(t))
			}
			fmt.Println()
		}
	}

	hot, maxT := tm.MaxBlockTemp()
	fmt.Printf("\nhottest block: %s at %.2f °C (sink %.2f °C)\n",
		fp.Block(hot).Name, maxT, tm.SinkTemp())
}

func glyph(t float64) string {
	switch {
	case t > 85:
		return "#"
	case t > 82:
		return "*"
	case t > 80:
		return "+"
	case t > 75:
		return "-"
	case t > 70:
		return ":"
	default:
		return "."
	}
}
