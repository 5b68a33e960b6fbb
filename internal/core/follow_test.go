package core

import (
	"testing"

	"hybriddtm/internal/dtm"
)

// alwaysGate gates every other fetch cycle, whatever the temperature.
type alwaysGate struct{}

func (alwaysGate) Name() string                     { return "always" }
func (alwaysGate) Sample(_, _ float64) dtm.Decision { return dtm.Decision{GateFrac: 0.5} }
func (alwaysGate) Reset()                           {}

// TestFollowers checks the follower rules on gzip, which starts above the
// trigger: a follower deciding like the leader stays attached, one that
// acts differently detaches, and no-DTM cannot follow a DTM leader (or the
// reverse) because only DTM runs start clamped. Followers never change the
// leader's own run.
func TestFollowers(t *testing.T) {
	cfg := prefixConfig()
	cfg.WarmupCycles, cfg.InitCycles = 300_000, 200_000
	cfg.Sensors.SampleRate = 100_000 // a decision every 10 µs
	prof := gzipProfile(t)
	fg := func() dtm.Policy {
		p, err := dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const insts = 200_000
	for _, tc := range []struct {
		name      string
		lead      dtm.Policy
		followers []dtm.Policy
		want      []bool
	}{
		{"fg", fg(), []dtm.Policy{fg(), alwaysGate{}, nil}, []bool{true, false, false}},
		{"none", nil, []dtm.Policy{dtm.None(), fg()}, []bool{true, false}},
	} {
		sim, err := New(cfg, prof, tc.lead)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Follow(tc.followers...); err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(insts)
		if err != nil {
			t.Fatal(err)
		}
		var lead dtm.Policy = dtm.None()
		if tc.name == "fg" {
			lead = fg()
		}
		if want := runQuick(t, cfg, prof, lead, insts); got != want {
			t.Errorf("%s: followers changed the leader's run\nalone: %+v\nled:   %+v", tc.name, want, got)
		}
		attached := sim.Attached()
		for i, w := range tc.want {
			if attached[i] != w {
				t.Errorf("%s: follower %d attached = %v, want %v", tc.name, i, attached[i], w)
			}
		}
		if err := sim.Follow(fg()); err == nil {
			t.Errorf("%s: Follow after Run succeeded", tc.name)
		}
	}
}
