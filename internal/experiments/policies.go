package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
)

// policyNames is the vocabulary PolicyByName accepts.
var policyNames = []string{
	"none", "dvs", "dvs-pi", "fg", "fg-fixed", "clockgate",
	"pi-hyb", "hyb", "local", "proactive-dvs",
}

// PolicyNames returns the names PolicyByName accepts, sorted.
func PolicyNames() []string {
	names := append([]string(nil), policyNames...)
	sort.Strings(names)
	return names
}

// PolicyNameList returns PolicyNames joined for error messages.
func PolicyNameList() string { return strings.Join(PolicyNames(), ", ") }

// PolicyByName builds the factory for the named DTM scheme, as the CLIs
// and the service accept it. gate is the fixed fetch-gating fraction of
// fg-fixed and the crossover gate of pi-hyb and hyb; steps sizes the
// dvs-pi ladder. cfg may be adjusted: dvs-pi installs its ladder into the
// simulator config.
func PolicyByName(cfg *core.Config, name string, gate float64, steps int) (PolicyFactory, error) {
	c := *cfg
	mk := func(newFn func() (dtm.Policy, error)) (PolicyFactory, error) {
		return PolicyFactory{Name: name, New: newFn}, nil
	}
	binary := func() (*dvfs.Ladder, error) { return dvfs.Binary(c.Tech, c.VMinFrac) }
	switch name {
	case "none":
		return mk(func() (dtm.Policy, error) { return dtm.None(), nil })
	case "dvs":
		return mk(func() (dtm.Policy, error) {
			ladder, err := binary()
			if err != nil {
				return nil, err
			}
			return dtm.DVSBinary(c.Trigger, ladder)
		})
	case "dvs-pi":
		ladder, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
		if err != nil {
			return PolicyFactory{}, err
		}
		cfg.Ladder = ladder
		c = *cfg
		return mk(func() (dtm.Policy, error) {
			l, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
			if err != nil {
				return nil, err
			}
			return dtm.DVSPI(c.Trigger, l)
		})
	case "fg":
		return mk(func() (dtm.Policy, error) {
			return dtm.FetchGating(c.Trigger, dtm.DefaultFGGain, FGMaxGate)
		})
	case "fg-fixed":
		return mk(func() (dtm.Policy, error) { return dtm.FixedFG(c.Trigger, gate) })
	case "clockgate":
		return mk(func() (dtm.Policy, error) { return dtm.ClockGating(c.Trigger), nil })
	case "pi-hyb":
		return mk(func() (dtm.Policy, error) {
			ladder, err := binary()
			if err != nil {
				return nil, err
			}
			return dtm.PIHyb(c.Trigger, dtm.DefaultFGGain, gate, ladder)
		})
	case "hyb":
		return mk(func() (dtm.Policy, error) {
			ladder, err := binary()
			if err != nil {
				return nil, err
			}
			return dtm.Hyb(c.Trigger, HybDelta, gate, ladder)
		})
	case "local":
		return mk(func() (dtm.Policy, error) {
			return dtm.LocalToggling(c.Trigger, dtm.DefaultFGGain, FGMaxGate, EV6Domains(floorplan.EV6()))
		})
	case "proactive-dvs":
		return mk(func() (dtm.Policy, error) {
			ladder, err := binary()
			if err != nil {
				return nil, err
			}
			inner, err := dtm.DVSBinary(c.Trigger, ladder)
			if err != nil {
				return nil, err
			}
			return dtm.Proactive(inner, 1.5e-3)
		})
	default:
		return PolicyFactory{}, fmt.Errorf("unknown policy %q (have %s)", name, PolicyNameList())
	}
}
