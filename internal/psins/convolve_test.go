package psins

import (
	"context"

	"math"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/multimaps"
	"tracex/internal/trace"
)

// buildProfile runs a cheap MultiMAPS sweep for the Opteron config.
func buildProfile(t *testing.T) *machine.Profile {
	t.Helper()
	cfg := machine.Opteron2L()
	o := multimaps.DefaultOptions(cfg)
	o.RefsPerProbe = 20_000
	o.WarmupPasses = 1
	p, err := multimaps.Run(context.Background(), cfg, o)
	if err != nil {
		t.Fatalf("multimaps.Run: %v", err)
	}
	return p
}

func convTrace(levels int) *trace.Trace {
	mkFV := func(memOps, fpOps float64, hr []float64, ws float64) trace.FeatureVector {
		return trace.FeatureVector{
			FPOps: fpOps, FPAdd: fpOps / 2, FPMul: fpOps / 2,
			MemOps: memOps, Loads: memOps * 0.7, Stores: memOps * 0.3,
			BytesPerRef: 8, HitRates: hr, WorkingSetBytes: ws, ILP: 2,
		}
	}
	return &trace.Trace{
		App: "conv", CoreCount: 16, Rank: 0, Machine: "opteron2", Levels: levels,
		Blocks: []trace.Block{
			{ID: 1, Func: "hot", FV: mkFV(1e9, 5e8, []float64{0.99, 1.0}, 32<<10)},
			{ID: 2, Func: "cold", FV: mkFV(1e8, 2e7, []float64{0.875, 0.9}, 8<<20)},
			{ID: 3, Func: "fponly", FV: mkFV(0, 1e9, []float64{0, 0}, 0)},
		},
	}
}

func TestConvolveBasics(t *testing.T) {
	prof := buildProfile(t)
	tr := convTrace(2)
	comp, err := Convolve(tr, prof)
	if err != nil {
		t.Fatalf("Convolve: %v", err)
	}
	if len(comp.Blocks) != 3 {
		t.Fatalf("got %d block times", len(comp.Blocks))
	}
	if comp.Seconds <= 0 || comp.MemSeconds <= 0 || comp.FPSeconds <= 0 {
		t.Errorf("non-positive components: %+v", comp)
	}
	// Per-block consistency: total = Σ block seconds.
	var sum float64
	for _, bt := range comp.Blocks {
		sum += bt.Seconds
		if bt.Seconds < math.Max(bt.MemSeconds, bt.FPSeconds)-1e-15 {
			t.Errorf("block %d time %g below max(mem,fp)", bt.BlockID, bt.Seconds)
		}
		if bt.Seconds > bt.MemSeconds+bt.FPSeconds+1e-15 {
			t.Errorf("block %d time %g above mem+fp", bt.BlockID, bt.Seconds)
		}
	}
	if math.Abs(sum-comp.Seconds) > 1e-12 {
		t.Errorf("block sum %g != total %g", sum, comp.Seconds)
	}
	// The FP-only block has zero memory time.
	if comp.Blocks[2].MemSeconds != 0 || comp.Blocks[2].FPSeconds <= 0 {
		t.Errorf("fp-only block mistimed: %+v", comp.Blocks[2])
	}
}

func TestConvolveCacheResidencyMatters(t *testing.T) {
	// The same reference count takes longer with poor hit rates.
	prof := buildProfile(t)
	fast := convTrace(2)
	fast.Blocks = fast.Blocks[:1] // L1-resident block
	slow := convTrace(2)
	slow.Blocks = slow.Blocks[1:2] // memory-resident block
	slow.Blocks[0].FV.MemOps = fast.Blocks[0].FV.MemOps
	for _, tr := range []*trace.Trace{fast, slow} {
		fv := &tr.Blocks[0].FV
		fv.FPOps, fv.FPAdd, fv.FPMul, fv.FPDivSqrt = 0, 0, 0, 0
	}
	fc, err := Convolve(fast, prof)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Convolve(slow, prof)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seconds <= fc.Seconds {
		t.Errorf("memory-bound block (%g s) not slower than cache-resident (%g s)",
			sc.Seconds, fc.Seconds)
	}
}

func TestConvolveErrors(t *testing.T) {
	prof := buildProfile(t)
	bad := convTrace(3) // wrong level count vs the 2-level Opteron profile
	if _, err := Convolve(bad, prof); err == nil {
		t.Error("level mismatch accepted")
	}
	invalid := convTrace(2)
	invalid.Blocks[0].FV.MemOps = -1
	if _, err := Convolve(invalid, prof); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestCostFromComputation(t *testing.T) {
	prof := buildProfile(t)
	comp, err := Convolve(convTrace(2), prof)
	if err != nil {
		t.Fatal(err)
	}
	cost := CostFromComputation(comp, nil)
	got, err := cost(0, 1, 0.5)
	if err != nil {
		t.Fatalf("cost: %v", err)
	}
	if want := comp.Blocks[0].Seconds * 0.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("cost = %g, want %g", got, want)
	}
	// Unknown block is an error.
	if _, err := cost(0, 999, 1); err == nil {
		t.Error("unknown block accepted")
	}
	// Load factor scales the cost.
	lf := func(rank int) float64 { return float64(rank + 1) }
	cost = CostFromComputation(comp, lf)
	a, _ := cost(0, 1, 1)
	b, _ := cost(3, 1, 1)
	if math.Abs(b-4*a) > 1e-15 {
		t.Errorf("load factor not applied: %g vs %g", a, b)
	}
	// Negative load factor is an error.
	neg := CostFromComputation(comp, func(int) float64 { return -1 })
	if _, err := neg(0, 1, 1); err == nil {
		t.Error("negative load factor accepted")
	}
	// Blocks arrive in any order; a repeated ID keeps its last time.
	dup := CostFromComputation(&Computation{Blocks: []BlockTime{
		{BlockID: 5, Seconds: 1}, {BlockID: 2, Seconds: 3}, {BlockID: 5, Seconds: 2},
	}}, nil)
	if a, _ := dup(0, 5, 1); a != 2 {
		t.Errorf("repeated block 5 costs %g, want its last time 2", a)
	}
	if b, _ := dup(0, 2, 1); b != 3 {
		t.Errorf("block 2 costs %g, want 3", b)
	}
}

func TestOverlapFactorBounds(t *testing.T) {
	if OverlapFactor <= 0 || OverlapFactor > 1 {
		t.Errorf("OverlapFactor = %g outside (0,1]", OverlapFactor)
	}
}
