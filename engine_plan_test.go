package tracex

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestEnginePlanCache checks that predictions and measurements at one
// (app, cores) compile the application's event trace once and then share
// the memoized plan, concurrent interval predictions included (run with
// -race).
func TestEnginePlanCache(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	prof, err := DefaultEngine().Profile(ctx, cfg) // shared with other tests
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := e.CollectInputs(ctx, app, []int{64, 128, 256}, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extrapolate(ctx, inputs, 512, ExtrapOptions{Intervals: true})
	if err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Signature: res.Signature, App: app, Profile: prof, WithReplay: true, Intervals: true}

	const workers = 8
	preds := make([]*Prediction, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], errs[i] = e.Predict(ctx, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if len(preds[0].Intervals) == 0 {
		t.Fatal("no intervals from an uncertain signature")
	}
	for i, p := range preds[1:] {
		if math.Float64bits(p.Runtime) != math.Float64bits(preds[0].Runtime) {
			t.Errorf("worker %d runtime %g, worker 0 %g", i+1, p.Runtime, preds[0].Runtime)
		}
		for r := range p.Replay.RankEnd {
			if p.Replay.RankEnd[r] != preds[0].Replay.RankEnd[r] {
				t.Fatalf("worker %d rank %d end differs", i+1, r)
			}
		}
		for j, iv := range p.Intervals {
			if iv != preds[0].Intervals[j] {
				t.Errorf("worker %d interval %d %+v, worker 0 %+v", i+1, j, iv, preds[0].Intervals[j])
			}
		}
	}
	if st := e.Stats(); st.PlanBuilds != 1 || st.PlanHits != workers-1 {
		t.Errorf("plan builds %d hits %d, want 1 and %d", st.PlanBuilds, st.PlanHits, workers-1)
	}

	// Ground truth at a predicted count reuses the prediction's plan.
	if _, err := e.Measure(ctx, app, 512, cfg, smallOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(ctx, PredictRequest{Signature: inputs[0], App: app, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanBuilds != 2 || st.PlanHits != workers {
		t.Errorf("plan builds %d hits %d, want 2 and %d", st.PlanBuilds, st.PlanHits, workers)
	}
	vals := map[string]float64{}
	for _, m := range e.Registry().Snapshot().Metrics {
		vals[m.Name] = m.Value
	}
	if vals["engine.cache.plan.misses"] != float64(st.PlanBuilds) || vals["engine.cache.plan.hits"] != float64(st.PlanHits) {
		t.Errorf("plan gauges %g misses %g hits, stats %+v", vals["engine.cache.plan.misses"], vals["engine.cache.plan.hits"], st)
	}
	// One replay per point prediction and per interval bound, as before
	// plans were cached.
	if want := float64(workers*(1+2*len(preds[0].Intervals)) + 2); vals["psins.replays"] != want {
		t.Errorf("psins.replays = %g, want %g", vals["psins.replays"], want)
	}

	// WithCacheSize bounds the plan cache like the others.
	small := NewEngine(WithCacheSize(1))
	for _, sig := range inputs[:2] {
		if _, err := small.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	if st := small.Stats(); st.PlanBuilds != 2 || st.PlanEvictions != 1 {
		t.Errorf("size-1 plan cache: builds %d evictions %d", st.PlanBuilds, st.PlanEvictions)
	}
}
