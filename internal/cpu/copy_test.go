package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"hybriddtm/internal/trace"
)

// copySchedule exercises every piece of state a restore must carry: fetch
// and issue gating accumulators, a DVS frequency change (memory latency),
// and enough cycles for misses, MSHRs and mispredictions to be in flight.
var copySchedule = []chunk{
	{n: 10_000},
	{n: 10_000, gates: Gates{Fetch: 1.0 / 3}},
	{n: 7_777, gates: Gates{Int: 0.5, Mem: 0.25}, ratio: 0.8},
	{n: 20_000, ratio: 1},
	{n: 10_000, gates: Gates{Fetch: 0.05, FP: 0.5}},
}

func runChunks(t *testing.T, c *Core, sched []chunk) []Activity {
	t.Helper()
	acts := make([]Activity, len(sched))
	for i, ch := range sched {
		if ch.ratio != 0 {
			if err := c.SetFrequencyRatio(ch.ratio); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RunGated(ch.n, ch.gates, &acts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return acts
}

// TestCopyFromContinuesIdentically warms a core, restores it into a core
// that has run a different stream, and requires the two to behave
// counter-for-counter identically from there on. The original runs its
// whole schedule before the copy runs, so any storage the copy still
// shared with it would show up as a divergence.
func TestCopyFromContinuesIdentically(t *testing.T) {
	src := newCore(t, testProfile())
	if _, err := src.RunGated(300_000, Gates{}, nil); err != nil { // warm caches and predictor
		t.Fatal(err)
	}
	runChunks(t, src, copySchedule[:3]) // leaves gating and a 0.8 ratio live
	if src.InFlight() == 0 {
		t.Fatal("empty window at the restore point; the test would not cover the ROB")
	}

	other := testProfile()
	other.Seed = 99
	dst := newCore(t, other)
	runChunks(t, dst, copySchedule[1:2]) // stale state to overwrite
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}

	want := runChunks(t, src, copySchedule)
	got := runChunks(t, dst, copySchedule)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chunk %d: restored core diverged\nwant: %+v\ngot:  %+v", i, want[i], got[i])
		}
	}
	if src.Cycle() != dst.Cycle() || src.Committed() != dst.Committed() || src.InFlight() != dst.InFlight() {
		t.Errorf("terminal state: cycle %d/%d committed %d/%d in-flight %d/%d",
			dst.Cycle(), src.Cycle(), dst.Committed(), src.Committed(), dst.InFlight(), src.InFlight())
	}
	if dst.Predictor().MispredictRate() != src.Predictor().MispredictRate() ||
		dst.Caches().L2.MissRate() != src.Caches().L2.MissRate() {
		t.Error("restored predictor or cache statistics diverged")
	}
}

// TestCopyFromSharesNoStorage walks every field of the restored core and
// requires each slice and pointer to differ from the source's: a restore
// that aliased any of the source's storage would let one core's run
// corrupt the other's state.
func TestCopyFromSharesNoStorage(t *testing.T) {
	src := newCore(t, testProfile())
	if _, err := src.RunGated(50_000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	dst := newCore(t, testProfile())
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, a, b reflect.Value)
	walk = func(path string, a, b reflect.Value) {
		switch a.Kind() {
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
			}
		case reflect.Slice, reflect.Pointer:
			if a.Pointer() != 0 && a.Pointer() == b.Pointer() {
				t.Errorf("%s: restored core shares the source's storage", path)
			}
		case reflect.Interface:
			if !a.IsNil() && a.Elem().Kind() == reflect.Pointer && a.Elem().Pointer() == b.Elem().Pointer() {
				t.Errorf("%s: restored core shares the source's trace source", path)
			}
		}
	}
	walk("Core", reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

// TestCopyFromRejectsRecordedTraces checks the documented limit: a
// recorded trace's file position cannot be restored, on either side.
func TestCopyFromRejectsRecordedTraces(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, testProfile(), 1000); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := New(DefaultConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	synthetic := newCore(t, testProfile())
	if err := recorded.CopyFrom(synthetic); err == nil {
		t.Error("CopyFrom into a recorded-trace core succeeded")
	}
	if err := synthetic.CopyFrom(recorded); err == nil {
		t.Error("CopyFrom from a recorded-trace core succeeded")
	}
	cfg := DefaultConfig()
	cfg.ROBSize = 64
	g, err := trace.NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.CopyFrom(synthetic); err == nil {
		t.Error("CopyFrom between different configurations succeeded")
	}
}

// TestCopyFromAllocationFree is the dynamic side of the //dtmlint:allocfree
// contract on CopyFrom: restoring a warmed core into an existing one
// reuses the destination's storage, caches and predictor included.
func TestCopyFromAllocationFree(t *testing.T) {
	src := newCore(t, testProfile())
	if _, err := src.RunGated(300_000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	dst := newCore(t, testProfile())
	restore := func() {
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
	}
	restore() // the first call may size anything a cold core lacks
	if allocs := testing.AllocsPerRun(5, restore); allocs != 0 {
		t.Errorf("Core.CopyFrom allocates %.1f times per call, want 0", allocs)
	}
}
