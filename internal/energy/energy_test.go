package energy

import (
	"context"

	"math"
	"sync"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/multimaps"
	"tracex/internal/pebil"
	"tracex/internal/psins"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

var (
	setupOnce sync.Once
	setupTr   *trace.Trace
	setupComp *psins.Computation
	setupCfg  machine.Config
	setupErr  error
)

// testSetup builds (once) a convolved stencil3d task on the Blue Waters
// model; the individual tests only read from it.
func testSetup(t *testing.T) (*trace.Trace, *psins.Computation, machine.Config) {
	t.Helper()
	setupOnce.Do(func() {
		setupCfg = machine.BlueWatersP1()
		prof, err := multimaps.Run(context.Background(), setupCfg, multimaps.DefaultOptions(setupCfg))
		if err != nil {
			setupErr = err
			return
		}
		col, err := pebil.NewCollector(0)
		if err != nil {
			setupErr = err
			return
		}
		defer col.Close()
		app := synthapp.Stencil3D()
		sig, err := col.Collect(context.Background(), app, 64, setupCfg, []int{0},
			pebil.CollectorConfig{SampleRefs: 60_000, MaxWarmRefs: 200_000})
		if err != nil {
			setupErr = err
			return
		}
		setupTr = &sig.Traces[0]
		setupComp, setupErr = psins.Convolve(setupTr, prof)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return setupTr, setupComp, setupCfg
}

func TestDefaultModelValid(t *testing.T) {
	for _, name := range machine.Names() {
		cfg, _ := machine.ByName(name)
		m := DefaultModel(cfg)
		if err := m.Validate(len(cfg.Caches)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Deeper levels must cost at least as much per access.
		for i := 1; i < len(cfg.Caches); i++ {
			if m.LevelWattsPerGaps[i] < m.LevelWattsPerGaps[i-1] {
				t.Errorf("%s: level %d cheaper than level %d", name, i, i-1)
			}
		}
	}
}

func TestModelValidateRejectsBad(t *testing.T) {
	cfg := machine.BlueWatersP1()
	base := DefaultModel(cfg)
	muts := []func(*Model){
		func(m *Model) { m.BaseWatts = 0 },
		func(m *Model) { m.FPWattsPerGops = -1 },
		func(m *Model) { m.LevelWattsPerGaps = m.LevelWattsPerGaps[:2] },
		func(m *Model) { m.LevelWattsPerGaps[0] = -1 },
		func(m *Model) { m.DynamicFraction = 1.5 },
	}
	for i, mut := range muts {
		m := base
		m.LevelWattsPerGaps = append([]float64(nil), base.LevelWattsPerGaps...)
		mut(&m)
		if err := m.Validate(len(cfg.Caches)); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEstimateBasics(t *testing.T) {
	tr, comp, cfg := testSetup(t)
	m := DefaultModel(cfg)
	rep, err := Estimate(tr, comp, m)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if len(rep.Blocks) != len(comp.Blocks) {
		t.Fatalf("got %d block energies", len(rep.Blocks))
	}
	if rep.Joules <= 0 || rep.AvgWatts <= m.BaseWatts {
		t.Errorf("implausible totals: %+v", rep)
	}
	if math.Abs(rep.EDP-rep.Joules*rep.Seconds) > 1e-9*rep.EDP {
		t.Errorf("EDP inconsistent")
	}
	// Energy decomposes exactly.
	var sum float64
	for _, b := range rep.Blocks {
		sum += b.Joules
		if b.Watts < m.BaseWatts {
			t.Errorf("block %d below base power", b.BlockID)
		}
	}
	if math.Abs(sum-rep.Joules) > 1e-9*rep.Joules {
		t.Errorf("block energies do not sum to total")
	}
}

func TestEstimateMismatchedBlocks(t *testing.T) {
	tr, comp, cfg := testSetup(t)
	orphan := *comp
	orphan.Blocks = append([]psins.BlockTime(nil), comp.Blocks...)
	orphan.Blocks[0].BlockID = 999
	if _, err := Estimate(tr, &orphan, DefaultModel(cfg)); err == nil {
		t.Error("orphan block accepted")
	}
}

func TestDVFSSweepShape(t *testing.T) {
	tr, comp, cfg := testSetup(t)
	m := DefaultModel(cfg)
	scales := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	pts, err := DVFSSweep(tr, comp, m, scales)
	if err != nil {
		t.Fatalf("DVFSSweep: %v", err)
	}
	if len(pts) != len(scales) {
		t.Fatalf("got %d points", len(pts))
	}
	// Time is non-increasing in frequency.
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds > pts[i-1].Seconds+1e-12 {
			t.Errorf("time not non-increasing at f=%g", pts[i].Scale)
		}
	}
	// Nominal point matches Estimate's time closely.
	rep, err := Estimate(tr, comp, m)
	if err != nil {
		t.Fatal(err)
	}
	var nominal FrequencyPoint
	for _, p := range pts {
		if p.Scale == 1.0 {
			nominal = p
		}
	}
	if math.Abs(nominal.Seconds-rep.Seconds) > 1e-9*rep.Seconds {
		t.Errorf("nominal sweep time %g != estimate %g", nominal.Seconds, rep.Seconds)
	}
	// Energy at a very high frequency exceeds the nominal energy (cubic
	// dynamic power overwhelms the shrinking time).
	high, err := DVFSSweep(tr, comp, m, []float64{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if high[0].Joules <= nominal.Joules {
		t.Errorf("2× frequency energy %g not above nominal %g", high[0].Joules, nominal.Joules)
	}
}

func TestDVFSMemoryBoundPrefersLowerFrequency(t *testing.T) {
	// A purely memory-bound task: lowering frequency cannot slow it down,
	// so the energy-optimal frequency is the lowest in the sweep.
	tr, comp, cfg := testSetup(t)
	memOnly := *comp
	memOnly.Blocks = append([]psins.BlockTime(nil), comp.Blocks...)
	for i := range memOnly.Blocks {
		memOnly.Blocks[i].FPSeconds = 0
		memOnly.Blocks[i].Seconds = memOnly.Blocks[i].MemSeconds
	}
	m := DefaultModel(cfg)
	pts, err := DVFSSweep(tr, &memOnly, m, []float64{0.5, 0.75, 1.0, 1.25})
	if err != nil {
		t.Fatal(err)
	}
	minE, _ := OptimalFrequency(pts)
	if minE.Scale != 0.5 {
		t.Errorf("memory-bound optimal frequency %g, want lowest (0.5)", minE.Scale)
	}
}

func TestDVFSSweepErrors(t *testing.T) {
	tr, comp, cfg := testSetup(t)
	m := DefaultModel(cfg)
	if _, err := DVFSSweep(tr, comp, m, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := DVFSSweep(tr, comp, m, []float64{0}); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestOptimalFrequency(t *testing.T) {
	pts := []FrequencyPoint{
		{Scale: 0.5, Joules: 10, EDP: 100},
		{Scale: 1.0, Joules: 8, EDP: 40},
		{Scale: 1.5, Joules: 12, EDP: 36},
	}
	minE, minEDP := OptimalFrequency(pts)
	if minE.Scale != 1.0 {
		t.Errorf("min energy at %g, want 1.0", minE.Scale)
	}
	if minEDP.Scale != 1.5 {
		t.Errorf("min EDP at %g, want 1.5", minEDP.Scale)
	}
}
