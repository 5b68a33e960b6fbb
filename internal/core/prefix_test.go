package core

import (
	"context"
	"errors"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
)

// prefixConfig is a small run whose prefix is cheap to warm.
func prefixConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 200_000
	cfg.InitCycles = 100_000
	cfg.SettleInstructions = 200_000
	return cfg
}

// TestNewFromPrefixMatchesNew runs the same simulations from scratch and
// from one shared prefix — restored copies first, the taking consumer
// last — and requires field-for-field equal results. gcc under DVS is hot
// enough to exercise the trigger clamp; the no-DTM run is not clamped.
func TestNewFromPrefixMatchesNew(t *testing.T) {
	cfg := prefixConfig()
	prof := gccProfile(t)
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	policies := []func() dtm.Policy{
		func() dtm.Policy { return nil },
		func() dtm.Policy {
			p, err := dtm.DVSBinary(cfg.Trigger, ladder)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		func() dtm.Policy {
			p, err := dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	const insts = 200_000
	p, err := WarmPrefix(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range policies {
		want := runQuick(t, cfg, prof, pol(), insts)
		take := i == len(policies)-1
		sim, err := NewFromPrefix(cfg, p, pol(), take)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(insts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("policy %d (take=%v): prefix run differs from a fresh run\nfresh:  %+v\nprefix: %+v", i, take, want, got)
		}
	}
	if _, err := NewFromPrefix(cfg, p, nil, false); err == nil {
		t.Error("NewFromPrefix accepted a prefix whose core was taken")
	}
}

func TestNewFromPrefixRejectsOtherWarmup(t *testing.T) {
	cfg := prefixConfig()
	p, err := WarmPrefix(context.Background(), cfg, gzipProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.InitCycles++
	if _, err := NewFromPrefix(other, p, nil, false); err == nil {
		t.Error("accepted a config with different InitCycles")
	}
	other = cfg
	other.CPU.ROBSize = 64
	if _, err := NewFromPrefix(other, p, nil, false); err == nil {
		t.Error("accepted a config with a different CPU")
	}
}

func TestWarmPrefixCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WarmPrefix(ctx, prefixConfig(), gzipProfile(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("WarmPrefix with a canceled context = %v, want context.Canceled", err)
	}
}
