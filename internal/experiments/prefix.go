// Warm-prefix sharing for RunJobs. A simulation's warm prefix — warm-up
// plus init, see core.Prefix — depends only on the trace profile, the CPU
// config and the two cycle counts, so a batch computes each distinct
// prefix once and starts every job that shares it from a copy.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybriddtm/internal/core"
	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/trace"
)

// prefixKey names a warm prefix by the full content of everything it
// depends on. Go syntax (%#v) quotes strings and prints floats in
// round-trip precision, so equal keys mean equal inputs.
func prefixKey(cfg core.Config, prof trace.Profile) string {
	return fmt.Sprintf("%#v", struct {
		Profile                  trace.Profile
		CPU                      cpu.Config
		WarmupCycles, InitCycles uint64
	}{prof, cfg.CPU, cfg.WarmupCycles, cfg.InitCycles})
}

// prefixTable shares warm prefixes among the consumers of one RunJobs
// call. Consumers are counted up front. A simulation acquires its leader's
// slot, and each follower that stays attached to it releases its own. Each
// key's prefix is computed once (singleflight); every acquirer but the
// last restores a copy of it into its own simulator, the last takes the
// prefix's core itself, and the entry is then dropped, so a prefix lives
// only while consumers remain.
//
// Cancellation and errors mirror the baseline singleflight: a warm-up
// aborted by its owner's cancellation is forgotten and the next waiter
// recomputes it under its own context; any other warm-up error is kept
// and fails every consumer of the key.
type prefixTable struct {
	warm func(ctx context.Context, cfg core.Config, prof trace.Profile) (*core.Prefix, error)

	mu      sync.Mutex
	entries map[string]*prefixEntry // guarded-by: mu
}

// prefixEntry is one key's sharing state.
type prefixEntry struct {
	refs   int            // guarded-by: prefixTable.mu  (consumers yet to acquire or release)
	flight *prefixFlight  // guarded-by: prefixTable.mu  (nil before the first warm-up and after a canceled one)
	copies sync.WaitGroup // restores in progress; the last consumer waits for them
}

// prefixFlight is one warm-up attempt. done is closed when p and err are
// final.
type prefixFlight struct {
	done chan struct{}
	p    *core.Prefix
	err  error
}

func newPrefixTable(warm func(context.Context, core.Config, trace.Profile) (*core.Prefix, error)) *prefixTable {
	return &prefixTable{warm: warm, entries: make(map[string]*prefixEntry)}
}

// addConsumer registers one more consumer of key.
func (t *prefixTable) addConsumer(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		e = &prefixEntry{}
		t.entries[key] = e
	}
	e.refs++
}

// release gives up a consumer slot without acquiring it.
func (t *prefixTable) release(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.consumeLocked(key)
}

// consumeLocked counts one consumer of key as served and reports whether
// it was the last; the last drops the entry.
func (t *prefixTable) consumeLocked(key string) bool {
	e := t.entries[key]
	if e == nil {
		return false
	}
	e.refs--
	if e.refs > 0 {
		return false
	}
	delete(t.entries, key)
	return true
}

// acquire returns key's prefix, computing it under ctx if no other
// consumer has. With take the caller is the key's last consumer and owns
// the prefix outright; otherwise it may only read the prefix and must call
// done once it has restored its copy (the last consumer waits for that
// before it takes the prefix's core). A key without registered consumers
// is computed privately and returned with take set.
func (t *prefixTable) acquire(ctx context.Context, key string, cfg core.Config, prof trace.Profile) (p *core.Prefix, take bool, done func(), err error) {
	for {
		t.mu.Lock()
		e := t.entries[key]
		if e == nil {
			t.mu.Unlock()
			p, err := t.warm(ctx, cfg, prof)
			return p, true, nil, err
		}
		f := e.flight
		if f == nil {
			f = &prefixFlight{done: make(chan struct{})}
			e.flight = f
			t.mu.Unlock()
			f.p, f.err = t.warm(ctx, cfg, prof)
			if f.err != nil && errors.Is(f.err, ctx.Err()) {
				// Canceled: forget the attempt before waking the waiters,
				// so one of them recomputes it under its own context.
				t.mu.Lock()
				e.flight = nil
				t.mu.Unlock()
				close(f.done)
				return nil, false, nil, f.err
			}
			close(f.done)
		} else {
			t.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, nil, ctx.Err()
			}
			if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				continue // the owner was canceled; retry under our own context
			}
		}

		t.mu.Lock()
		last := t.consumeLocked(key)
		if !last && f.err == nil {
			e.copies.Add(1)
		}
		t.mu.Unlock()
		if f.err != nil {
			return nil, false, nil, f.err
		}
		if last {
			e.copies.Wait()
			return f.p, true, nil, nil
		}
		return f.p, false, e.copies.Done, nil
	}
}

// startSim builds the simulator of one consumer of t from the shared warm
// prefix.
func (t *prefixTable) startSim(ctx context.Context, cfg core.Config, prof trace.Profile, pol dtm.Policy) (*core.Simulator, error) {
	p, take, done, err := t.acquire(ctx, prefixKey(cfg, prof), cfg, prof)
	if err != nil {
		return nil, err
	}
	if done != nil {
		defer done()
	}
	return core.NewFromPrefix(cfg, p, pol, take)
}
