package cpu

import (
	"bytes"
	"math"
	"testing"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/trace"
)

func testProfile() trace.Profile {
	return trace.Profile{
		Name: "cputest", Seed: 7,
		Mix:         trace.Mix{Load: 0.24, Store: 0.10, Branch: 0.12, FPAdd: 0.05, FPMul: 0.04, IntMul: 0.01},
		MeanDepDist: 5, IndepFrac: 0.25,
		PatternedFrac: 0.92, PatternedBias: 0.97, BranchSites: 128,
		CodeFootprint: 48 << 10,
		DataResident:  40 << 10, SpillProb: 0.01, ColdFootprint: 2 << 20,
	}
}

func newCore(t *testing.T, p trace.Profile) *Core {
	t.Helper()
	g, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.FetchWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero fetch width")
	}
	bad = DefaultConfig()
	bad.MispredictPenalty = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative mispredict penalty")
	}
	g, _ := trace.NewGenerator(testProfile())
	if _, err := New(bad, g); err == nil {
		t.Error("New accepted invalid config")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("New accepted nil generator")
	}
}

func TestRunProgresses(t *testing.T) {
	c := newCore(t, testProfile())
	n, err := c.RunGated(100000, Gates{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no instructions committed in 100k cycles")
	}
	if c.Cycle() != 100000 {
		t.Errorf("Cycle = %d, want 100000", c.Cycle())
	}
	if c.Committed() != n {
		t.Errorf("Committed %d != returned %d", c.Committed(), n)
	}
}

func TestIPCInPlausibleBand(t *testing.T) {
	// A 4-wide machine on a mixed workload: IPC in (0.5, 4].
	c := newCore(t, testProfile())
	if _, err := c.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	ipc := c.IPC()
	if ipc <= 0.5 || ipc > 4 {
		t.Errorf("IPC = %v, want in (0.5, 4]", ipc)
	}
}

func TestIPCNeverExceedsWidths(t *testing.T) {
	c := newCore(t, testProfile())
	var act Activity
	if _, err := c.RunGated(200000, Gates{}, &act); err != nil {
		t.Fatal(err)
	}
	if act.IPC() > float64(c.Config().FetchWidth) {
		t.Errorf("IPC %v exceeds fetch width", act.IPC())
	}
	// Committed can never exceed fetched.
	if act.Committed > act.Fetched {
		t.Errorf("committed %d > fetched %d", act.Committed, act.Fetched)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, Activity) {
		c := newCore(t, testProfile())
		var act Activity
		n, err := c.RunGated(300000, Gates{Fetch: 0.2}, &act)
		if err != nil {
			t.Fatal(err)
		}
		return n, act
	}
	n1, a1 := run()
	n2, a2 := run()
	if n1 != n2 || a1 != a2 {
		t.Errorf("non-deterministic simulation: %d vs %d committed", n1, n2)
	}
}

func TestHigherILPGivesHigherIPC(t *testing.T) {
	lowDep := testProfile()
	lowDep.MeanDepDist = 1.5
	lowDep.IndepFrac = 0.05
	highDep := testProfile()
	highDep.MeanDepDist = 10
	highDep.IndepFrac = 0.4

	cLow := newCore(t, lowDep)
	cHigh := newCore(t, highDep)
	if _, err := cLow.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cHigh.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if cHigh.IPC() <= cLow.IPC()*1.1 {
		t.Errorf("ILP knob ineffective: IPC %v (high ILP) vs %v (low ILP)",
			cHigh.IPC(), cLow.IPC())
	}
}

func TestCacheMissesHurt(t *testing.T) {
	resident := testProfile()
	thrashing := testProfile()
	thrashing.SpillProb = 0.2
	thrashing.ColdFootprint = 64 << 20 // misses all the way to memory

	cRes := newCore(t, resident)
	cThr := newCore(t, thrashing)
	if _, err := cRes.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cThr.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if cThr.IPC() >= cRes.IPC()*0.8 {
		t.Errorf("memory-bound profile too fast: %v vs resident %v", cThr.IPC(), cRes.IPC())
	}
}

func TestBranchMispredictsHurt(t *testing.T) {
	predictable := testProfile()
	predictable.PatternedFrac = 1
	predictable.PatternedBias = 1
	hostile := testProfile()
	hostile.PatternedFrac = 0 // all 50/50 branches

	cP := newCore(t, predictable)
	cH := newCore(t, hostile)
	if _, err := cP.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cH.RunGated(500000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if cH.IPC() >= cP.IPC()*0.85 {
		t.Errorf("mispredictions too cheap: hostile IPC %v vs predictable %v",
			cH.IPC(), cP.IPC())
	}
	if r := cH.Predictor().MispredictRate(); r < 0.3 {
		t.Errorf("hostile profile mispredict rate %v, want ≥0.3", r)
	}
	if r := cP.Predictor().MispredictRate(); r > 0.1 {
		t.Errorf("predictable profile mispredict rate %v, want ≤0.1", r)
	}
}

// TestFetchGatingKnee is the architectural heart of the paper: mild fetch
// gating must be (almost) free because ILP and fetch-queue buffering hide
// it, while severe gating must cost roughly in proportion to the gated
// fraction. We check three regimes.
func TestFetchGatingKnee(t *testing.T) {
	ipcAt := func(gate float64) float64 {
		c := newCore(t, testProfile())
		var act Activity
		if _, err := c.RunGated(600000, Gates{Fetch: gate}, &act); err != nil {
			t.Fatal(err)
		}
		return act.IPC()
	}
	base := ipcAt(0)
	mild := ipcAt(0.05) // duty cycle 20: the paper's mildest setting
	mid := ipcAt(1.0 / 3)
	severe := ipcAt(2.0 / 3)

	if mild < base*0.97 {
		t.Errorf("mild gating (5%%) cost %.1f%%, want ≤3%%", 100*(1-mild/base))
	}
	// Severe gating: fetch bandwidth 4/cycle × (1-2/3) = 1.33 < IPC, so the
	// loss must be substantial.
	if severe > base*0.80 {
		t.Errorf("severe gating (67%%) only cost %.1f%%, want ≥20%%", 100*(1-severe/base))
	}
	// Monotonicity.
	if !(base >= mild && mild >= mid && mid >= severe) {
		t.Errorf("slowdown not monotone in gating: %v %v %v %v", base, mild, mid, severe)
	}
}

func TestGatingReducesActivity(t *testing.T) {
	run := func(gate float64) Activity {
		c := newCore(t, testProfile())
		var act Activity
		if _, err := c.RunGated(300000, Gates{Fetch: gate}, &act); err != nil {
			t.Fatal(err)
		}
		return act
	}
	free := run(0)
	gated := run(0.5)
	if gated.FetchGroups >= free.FetchGroups {
		t.Error("gating did not reduce I-cache accesses")
	}
	if gated.Committed >= free.Committed {
		t.Error("50% gating did not reduce throughput")
	}
	if gated.GatedCycles == 0 {
		t.Error("no gated cycles recorded")
	}
	// Gated fraction must track the requested duty.
	frac := float64(gated.GatedCycles) / float64(gated.Cycles)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("gated fraction %v, want 0.5", frac)
	}
}

func TestGateFractionValidation(t *testing.T) {
	c := newCore(t, testProfile())
	if _, err := c.RunGated(10, Gates{Fetch: -0.1}, nil); err == nil {
		t.Error("accepted negative gate fraction")
	}
	if _, err := c.RunGated(10, Gates{Fetch: 1.0}, nil); err == nil {
		t.Error("accepted gate fraction of 1 (fetch never runs)")
	}
}

func TestSetFrequencyRatio(t *testing.T) {
	c := newCore(t, testProfile())
	if err := c.SetFrequencyRatio(0); err == nil {
		t.Error("accepted zero ratio")
	}
	if err := c.SetFrequencyRatio(1.5); err == nil {
		t.Error("accepted ratio above 1")
	}
	if err := c.SetFrequencyRatio(0.8); err != nil {
		t.Error(err)
	}
}

func TestLowerClockHelpsMemoryBoundCode(t *testing.T) {
	// At a reduced clock the memory latency spans fewer cycles, so a
	// memory-bound workload loses less IPC than the frequency reduction.
	p := testProfile()
	p.SpillProb = 0.25
	p.ColdFootprint = 64 << 20

	full := newCore(t, p)
	if _, err := full.RunGated(400000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	slow := newCore(t, p)
	if err := slow.SetFrequencyRatio(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.RunGated(400000, Gates{}, nil); err != nil {
		t.Fatal(err)
	}
	if slow.IPC() <= full.IPC()*1.05 {
		t.Errorf("halved clock should raise IPC of memory-bound code: %v vs %v",
			slow.IPC(), full.IPC())
	}
}

func TestActivityAddAndReset(t *testing.T) {
	a := Activity{Cycles: 10, Committed: 5, IntIssued: 3}
	b := Activity{Cycles: 20, Committed: 7, IntIssued: 1}
	a.Add(&b)
	if a.Cycles != 30 || a.Committed != 12 || a.IntIssued != 4 {
		t.Errorf("Add wrong: %+v", a)
	}
	a.Reset()
	if a != (Activity{}) {
		t.Errorf("Reset left %+v", a)
	}
}

func TestBlockActivityBounds(t *testing.T) {
	c := newCore(t, testProfile())
	if _, err := c.RunGated(300000, Gates{}, nil); err != nil { // warm caches and predictor
		t.Fatal(err)
	}
	var act Activity
	if _, err := c.RunGated(200000, Gates{}, &act); err != nil {
		t.Fatal(err)
	}
	fp := floorplan.EV6()
	v, err := act.BlockActivity(fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != fp.NumBlocks() {
		t.Fatalf("activity length %d, want %d", len(v), fp.NumBlocks())
	}
	nonzero := 0
	for i, a := range v {
		if a < 0 || a > 1 {
			t.Errorf("block %s activity %v outside [0,1]", fp.Block(i).Name, a)
		}
		if a > 0 {
			nonzero++
		}
	}
	if nonzero < 10 {
		t.Errorf("only %d blocks show activity; expected most of the core", nonzero)
	}
	// A running integer workload must keep the integer register file busy.
	if v[fp.Index(floorplan.IntReg)] < 0.1 {
		t.Errorf("IntReg activity %v suspiciously low", v[fp.Index(floorplan.IntReg)])
	}
}

func TestBlockActivityZeroCycles(t *testing.T) {
	var act Activity
	v, err := act.BlockActivity(floorplan.EV6(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range v {
		if a != 0 {
			t.Error("zero-cycle activity not all zero")
		}
	}
}

func TestBlockActivityMissingBlock(t *testing.T) {
	fp, err := floorplan.New([]floorplan.Block{
		{Name: "only", Rect: floorplan.EV6().Block(0).Rect},
	})
	if err != nil {
		t.Fatal(err)
	}
	act := Activity{Cycles: 100}
	if _, err := act.BlockActivity(fp, nil); err == nil {
		t.Error("BlockActivity accepted floorplan without EV6 blocks")
	}
}

func TestInstructionConservation(t *testing.T) {
	// Everything fetched is eventually committed (no wrong-path in a
	// trace-driven model): after a drain, fetched == committed + in-flight,
	// and committed monotonically approaches fetched.
	c := newCore(t, testProfile())
	var act Activity
	if _, err := c.RunGated(300000, Gates{}, &act); err != nil {
		t.Fatal(err)
	}
	inFlight := act.Fetched - act.Committed
	// In-flight is bounded by ROB + IFQ.
	bound := uint64(c.Config().ROBSize + c.Config().IFQSize)
	if inFlight > bound {
		t.Errorf("in-flight %d exceeds ROB+IFQ %d", inFlight, bound)
	}
}

func TestICacheMissesOccurForBigCode(t *testing.T) {
	p := testProfile()
	p.CodeFootprint = 1 << 20 // 1MB code over a 64KB L1I
	c := newCore(t, p)
	var act Activity
	if _, err := c.RunGated(300000, Gates{}, &act); err != nil {
		t.Fatal(err)
	}
	if act.ICacheMisses == 0 {
		t.Error("1MB code footprint produced no I-cache misses")
	}
	small := newCore(t, testProfile())
	var actSmall Activity
	if _, err := small.RunGated(300000, Gates{}, &actSmall); err != nil {
		t.Fatal(err)
	}
	rBig := float64(act.ICacheMisses) / float64(act.FetchGroups)
	rSmall := float64(actSmall.ICacheMisses) / float64(actSmall.FetchGroups)
	if rBig <= rSmall {
		t.Errorf("I-miss rate %v (big code) not above %v (small code)", rBig, rSmall)
	}
}

func TestFPWorkloadUsesFPUnits(t *testing.T) {
	p := testProfile()
	p.Mix.FPAdd, p.Mix.FPMul = 0.25, 0.20
	c := newCore(t, p)
	var act Activity
	if _, err := c.RunGated(200000, Gates{}, &act); err != nil {
		t.Fatal(err)
	}
	if act.FPAddIssued == 0 || act.FPMulIssued == 0 || act.FPRegWrites == 0 {
		t.Errorf("FP workload left FP units idle: %+v", act)
	}
}

func TestRunZeroCycles(t *testing.T) {
	c := newCore(t, testProfile())
	n, err := c.RunGated(0, Gates{}, nil)
	if err != nil || n != 0 {
		t.Errorf("Run(0) = (%d, %v)", n, err)
	}
}

func TestGatesValidation(t *testing.T) {
	c := newCore(t, testProfile())
	if _, err := c.RunGated(10, Gates{Int: 1.0}, nil); err == nil {
		t.Error("accepted Int gate of 1")
	}
	if _, err := c.RunGated(10, Gates{FP: -0.2}, nil); err == nil {
		t.Error("accepted negative FP gate")
	}
	if _, err := c.RunGated(10, Gates{Mem: 1.5}, nil); err == nil {
		t.Error("accepted Mem gate above 1")
	}
}

func TestIssueGatingThrottlesItsDomain(t *testing.T) {
	// Severely gating the integer issue domain must slow an integer
	// workload; gating the FP domain must barely matter for it.
	run := func(g Gates) float64 {
		c := newCore(t, testProfile())
		if _, err := c.RunGated(300_000, Gates{}, nil); err != nil {
			t.Fatal(err)
		}
		var act Activity
		if _, err := c.RunGated(400_000, g, &act); err != nil {
			t.Fatal(err)
		}
		return act.IPC()
	}
	base := run(Gates{})
	// Issue gating hides behind the issue-width headroom (width 4 vs.
	// throughput ≈1), so it takes a very deep duty to bite — which is why
	// the paper found local toggling no better than fetch gating.
	intGated := run(Gates{Int: 0.85})
	fpGated := run(Gates{FP: 0.85})
	if intGated > base*0.92 {
		t.Errorf("gating 85%% of int issue cost only %.1f%%", 100*(1-intGated/base))
	}
	if fpGated < base*0.92 {
		t.Errorf("gating FP issue cost %.1f%% on a mostly-int workload", 100*(1-fpGated/base))
	}
}

func TestIssueGatingReducesDomainActivity(t *testing.T) {
	run := func(g Gates) Activity {
		c := newCore(t, testProfile())
		if _, err := c.RunGated(300_000, Gates{}, nil); err != nil {
			t.Fatal(err)
		}
		var act Activity
		if _, err := c.RunGated(300_000, g, &act); err != nil {
			t.Fatal(err)
		}
		return act
	}
	base := run(Gates{})
	gated := run(Gates{Mem: 0.5})
	baseRate := float64(base.MemIssued) / float64(base.Cycles)
	gatedRate := float64(gated.MemIssued) / float64(gated.Cycles)
	if gatedRate >= baseRate {
		t.Errorf("memory issue rate did not drop under gating: %v vs %v", gatedRate, baseRate)
	}
}

func TestRunFromRecordedTrace(t *testing.T) {
	// A recorded trace replayed through the Source interface must drive the
	// core identically to the live generator.
	p := testProfile()
	var buf bytes.Buffer
	const n = 400_000
	if err := trace.WriteTrace(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cRec, err := New(DefaultConfig(), rd)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	cGen, err := New(DefaultConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	var aRec, aGen Activity
	// Stay within the recording so no loop-wrap divergence occurs.
	if _, err := cRec.RunGated(100_000, Gates{}, &aRec); err != nil {
		t.Fatal(err)
	}
	if _, err := cGen.RunGated(100_000, Gates{}, &aGen); err != nil {
		t.Fatal(err)
	}
	if aRec != aGen {
		t.Errorf("recorded trace diverged from generator:\n%+v\n%+v", aRec, aGen)
	}
}

func TestBlockActivityClamps(t *testing.T) {
	// Absurd event counts (corrupted or synthetic) must clamp to 1, never
	// exceed it — the power model treats activity as a fraction of peak.
	act := Activity{
		Cycles:         100,
		FetchGroups:    1e6,
		BPredAccesses:  1e6,
		ITBAccesses:    1e6,
		IntDispatched:  1e6,
		IntIssued:      1e6,
		IntRegReads:    1e6,
		DCacheAccesses: 1e6,
		L2Accesses:     1e6,
	}
	v, err := act.BlockActivity(floorplan.EV6(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range v {
		if a < 0 || a > 1 {
			t.Errorf("block %d activity %v outside [0,1]", i, a)
		}
	}
}
