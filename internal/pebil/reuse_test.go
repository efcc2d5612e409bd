package pebil

import (
	"context"
	"errors"
	"math"
	"testing"

	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// collectReuse runs one reuse collection on a throwaway collector.
func collectReuse(ctx context.Context, app *synthapp.App, p int, cfg CollectorConfig) (*trace.ReuseSignature, error) {
	c, err := NewCollector(0)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.CollectReuse(ctx, app, p, cfg)
}

// TestAnalyticalFidelityGolden pins the analytical cache model against the
// exact simulator: across the seed workloads and three real hierarchies,
// every block's per-level cumulative hit rate derived from one reuse
// signature must stay within fidelityBound of the simulated rate. The bound
// was measured empirically: the collections are deterministic and the worst
// error across the grid below is 0.092, at blocks whose regularly-strided
// footprint sits right at a level's capacity — the binomial set-conflict
// correction smears that residency edge, while set-aligned strides resolve
// it exactly. A regression in the recorder, the histogram bucketing or the
// binomial correction trips the pinned bound.
func TestAnalyticalFidelityGolden(t *testing.T) {
	const fidelityBound = 0.10
	apps := []*synthapp.App{synthapp.UH3D(), synthapp.SPECFEM3D(), synthapp.CGSolve()}
	geoms := []machine.Config{machine.BlueWatersP1(), machine.Kraken(), machine.XE6()}
	cores := map[string]int{"uh3d": 1024, "specfem3d": 96, "cgsolve": 256}
	worst := 0.0
	for _, app := range apps {
		p := cores[app.Name()]
		rs, err := collectReuse(context.Background(), app, p, fastOpt)
		if err != nil {
			t.Fatalf("CollectReuse(%s): %v", app.Name(), err)
		}
		for _, sys := range geoms {
			exact, err := collect(context.Background(), app, p, sys, []int{0}, fastOpt)
			if err != nil {
				t.Fatalf("Collect(%s, %s): %v", app.Name(), sys.Name, err)
			}
			derived, err := SignatureFromReuse(rs, app, sys, []int{0}, nil)
			if err != nil {
				t.Fatalf("SignatureFromReuse(%s, %s): %v", app.Name(), sys.Name, err)
			}
			eb := exact.DominantTrace().BlockByID()
			for _, db := range derived.DominantTrace().Blocks {
				want := eb[db.ID]
				if want == nil {
					t.Fatalf("%s/%s: block %d missing from exact signature", app.Name(), sys.Name, db.ID)
				}
				for l := range db.FV.HitRates {
					diff := math.Abs(db.FV.HitRates[l] - want.FV.HitRates[l])
					if diff > worst {
						worst = diff
					}
					if diff > fidelityBound {
						t.Errorf("%s/%s block %s level %d: analytical %.4f vs exact %.4f (|Δ|=%.4f > %.2f)",
							app.Name(), sys.Name, db.Func, l, db.FV.HitRates[l], want.FV.HitRates[l], diff, fidelityBound)
					}
				}
			}
		}
	}
	t.Logf("worst per-level hit-rate error across grid: %.4f (bound %.2f)", worst, fidelityBound)
}

func TestCollectReuseDeterministicAcrossWorkers(t *testing.T) {
	app := synthapp.Stencil3D()
	o1 := fastOpt
	o1.Workers = 1
	o2 := fastOpt
	o2.Workers = 8
	a, err := collectReuse(context.Background(), app, 64, o1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collectReuse(context.Background(), app, 64, o2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		ha, hb := a.Blocks[i].Hist, b.Blocks[i].Hist
		if ha.Refs != hb.Refs || ha.Cold != hb.Cold {
			t.Errorf("block %d accounting differs across parallelism", a.Blocks[i].ID)
		}
		for j := range ha.Counts {
			if j < len(hb.Counts) && ha.Counts[j] != hb.Counts[j] {
				t.Errorf("block %d bucket %d differs across parallelism", a.Blocks[i].ID, j)
			}
		}
	}
}

func TestCollectReuseRejectsSharedHierarchy(t *testing.T) {
	app := synthapp.Stencil3D()
	cfg := fastOpt
	cfg.SharedHierarchy = true
	if _, err := collectReuse(context.Background(), app, 64, cfg); !errors.Is(err, cache.ErrModelUnsupported) {
		t.Errorf("shared-hierarchy collection: %v, want ErrModelUnsupported", err)
	}
}

func TestSignatureFromReuseValidation(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	rs, err := collectReuse(context.Background(), app, 64, fastOpt)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := SignatureFromReuse(nil, app, bw, nil, nil); err == nil {
		t.Error("nil reuse signature accepted")
	}
	if _, err := SignatureFromReuse(rs, nil, bw, nil, nil); err == nil {
		t.Error("nil application accepted")
	}
	if _, err := SignatureFromReuse(rs, synthapp.UH3D(), bw, nil, nil); !errors.Is(err, trace.ErrMachineMismatch) {
		t.Errorf("app mismatch: %v, want ErrMachineMismatch", err)
	}
	if _, err := SignatureFromReuse(rs, app, machine.WithPrefetch(bw), nil, nil); !errors.Is(err, cache.ErrModelUnsupported) {
		t.Errorf("prefetcher target: %v, want ErrModelUnsupported", err)
	}
	if _, err := SignatureFromReuse(rs, app, bw, []int{64}, nil); !errors.Is(err, trace.ErrRankOutOfRange) {
		t.Errorf("out-of-range rank: %v, want ErrRankOutOfRange", err)
	}
	if _, err := SignatureFromReuse(rs, app, bw, []int{1, 1}, nil); err == nil {
		t.Error("duplicate rank accepted")
	}

	// Default ranks mirror exact collection: one per load class, validating.
	sig, err := SignatureFromReuse(rs, app, bw, nil, nil)
	if err != nil {
		t.Fatalf("SignatureFromReuse: %v", err)
	}
	if err := sig.Validate(); err != nil {
		t.Fatalf("derived signature invalid: %v", err)
	}
	if len(sig.Traces) != app.NumClasses() {
		t.Errorf("got %d traces, want one per class (%d)", len(sig.Traces), app.NumClasses())
	}
	if sig.Machine != bw.Name {
		t.Errorf("machine = %q, want %q", sig.Machine, bw.Name)
	}
}
