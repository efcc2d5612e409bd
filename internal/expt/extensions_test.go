package expt

import "testing"

func TestWeakScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := WeakScaling(quickCfg)
	if err != nil {
		t.Fatalf("WeakScaling: %v", err)
	}
	checkGolden(t, "WeakScaling", rows)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MaxError >= 0.20 {
			t.Errorf("%s (%s): max element error %.1f%%", r.App, r.Regime, 100*r.MaxError)
		}
		if r.PredErrPct > 10 {
			t.Errorf("%s (%s): prediction error %.1f%%", r.App, r.Regime, r.PredErrPct)
		}
	}
	// Weak scaling should extrapolate at least as accurately on average.
	if rows[1].MeanErr > rows[0].MeanErr*3 {
		t.Errorf("weak-scaled mean error %.2f%% much worse than strong %.2f%%",
			100*rows[1].MeanErr, 100*rows[0].MeanErr)
	}
}

func TestCommExtrapShape(t *testing.T) {
	rows, err := CommExtrap(quickCfg)
	if err != nil {
		t.Fatalf("CommExtrap: %v", err)
	}
	checkGolden(t, "CommExtrap", rows)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for field, e := range r.FieldErrors {
			if e > 0.10 {
				t.Errorf("%s: field %s error %.1f%%", r.App, field, 100*e)
			}
		}
		if r.ActualCommSeconds <= 0 || r.SynthCommSeconds <= 0 {
			t.Errorf("%s: non-positive comm times", r.App)
		}
		rel := r.SynthCommSeconds/r.ActualCommSeconds - 1
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("%s: synthesized comm time %.4f s vs actual %.4f s",
				r.App, r.SynthCommSeconds, r.ActualCommSeconds)
		}
	}
}

func TestCrossArchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := CrossArch(quickCfg)
	if err != nil {
		t.Fatalf("CrossArch: %v", err)
	}
	checkGolden(t, "CrossArch", rows)
	if len(rows) != 6 { // two apps × three machines
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]map[string]CrossArchRow{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]CrossArchRow{}
		}
		byApp[r.App][r.Machine] = r
		if r.PctError > 15 {
			t.Errorf("%s on %s: %.1f%% error exceeds the framework's usual band", r.App, r.Machine, r.PctError)
		}
	}
	// The prediction must rank the machines the same way the detailed
	// simulation does (the cross-architectural use case).
	for app, ms := range byApp {
		k, b := ms["kraken"], ms["bluewaters"]
		predFaster := k.Predicted > b.Predicted
		measFaster := k.Measured > b.Measured
		if predFaster != measFaster {
			t.Errorf("%s: prediction ranks machines differently than measurement", app)
		}
	}
}

func TestAblationDistanceGrowsWithFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := AblationDistance(quickCfg)
	if err != nil {
		t.Fatalf("AblationDistance: %v", err)
	}
	checkGolden(t, "AblationDistance", rows)
	if len(rows) < 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Per app: mean error at the largest factor is at least the mean error
	// at the smallest (extrapolating further is never easier).
	perApp := map[string][]DistanceAblationRow{}
	for _, r := range rows {
		perApp[r.App] = append(perApp[r.App], r)
	}
	for app, rs := range perApp {
		first, last := rs[0], rs[len(rs)-1]
		if last.MeanErr+1e-9 < first.MeanErr {
			t.Errorf("%s: error shrank with distance: %.3f%% -> %.3f%%",
				app, 100*first.MeanErr, 100*last.MeanErr)
		}
	}
}

func TestPrefetchExplorationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := PrefetchExploration(quickCfg)
	if err != nil {
		t.Fatalf("PrefetchExploration: %v", err)
	}
	checkGolden(t, "PrefetchExploration", rows)
	var specfem, uh3d PrefetchRow
	for _, r := range rows {
		switch r.App {
		case "specfem3d":
			specfem = r
		case "uh3d":
			uh3d = r
		}
	}
	// The streaming-heavy code benefits decisively more than the
	// random-access-heavy one.
	if specfem.SpeedupPct < 10 {
		t.Errorf("specfem3d prefetch speedup %.1f%%, want substantial", specfem.SpeedupPct)
	}
	if uh3d.SpeedupPct > specfem.SpeedupPct/2 {
		t.Errorf("uh3d speedup %.1f%% not clearly below specfem3d's %.1f%%",
			uh3d.SpeedupPct, specfem.SpeedupPct)
	}
}

func TestScalingCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := ScalingCurve(quickCfg)
	if err != nil {
		t.Fatalf("ScalingCurve: %v", err)
	}
	checkGolden(t, "ScalingCurve", rows)
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.PctError > 10 {
			t.Errorf("point %d (%d cores): error %.1f%%", i, r.CoreCount, r.PctError)
		}
		if i > 0 && r.Predicted >= rows[i-1].Predicted {
			t.Errorf("predicted runtime not decreasing under strong scaling at %d cores", r.CoreCount)
		}
		if r.Efficiency <= 0 || r.Efficiency > 1.2 {
			t.Errorf("implausible efficiency %.2f at %d cores", r.Efficiency, r.CoreCount)
		}
	}
}

func TestAblationCollectionModeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := AblationCollectionMode(quickCfg)
	if err != nil {
		t.Fatalf("AblationCollectionMode: %v", err)
	}
	checkGolden(t, "AblationCollectionMode", rows)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]map[string]CollectionModeRow{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]CollectionModeRow{}
		}
		byApp[r.App][r.Mode] = r
	}
	for app, ms := range byApp {
		// Private collection matches the private-calibrated pricing; the
		// shared mode's prediction error must be visibly worse (the
		// measurement/calibration mismatch the ablation demonstrates).
		if ms["private"].PredErrPct > 10 {
			t.Errorf("%s: private prediction error %.1f%%", app, ms["private"].PredErrPct)
		}
		if ms["shared"].PredErrPct < ms["private"].PredErrPct {
			t.Errorf("%s: shared mode unexpectedly beats private (%.1f%% vs %.1f%%)",
				app, ms["shared"].PredErrPct, ms["private"].PredErrPct)
		}
	}
}

func TestCalibrationDemoRecoversTruth(t *testing.T) {
	rows, err := CalibrationDemo(quickCfg)
	if err != nil {
		t.Fatalf("CalibrationDemo: %v", err)
	}
	checkGolden(t, "CalibrationDemo", rows)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.CalibratedErr > 0.01 {
			t.Errorf("%s: calibrated error %.3f", r.App, r.CalibratedErr)
		}
		if r.DistortedErr < r.CalibratedErr*10 {
			t.Errorf("%s: distorted prior not visibly worse (%.3f vs %.3f)",
				r.App, r.DistortedErr, r.CalibratedErr)
		}
		if d := r.RecoveredMLP - r.TrueMLP; d < -0.25 || d > 0.25 {
			t.Errorf("%s: recovered MLP %.2f, want %.1f", r.App, r.RecoveredMLP, r.TrueMLP)
		}
	}
}

func TestEnergyDVFSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rows, err := EnergyDVFS(quickCfg)
	if err != nil {
		t.Fatalf("EnergyDVFS: %v", err)
	}
	checkGolden(t, "EnergyDVFS", rows)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Joules <= 0 || r.AvgWatts <= 0 || r.NominalTime <= 0 {
			t.Errorf("%s: implausible energy row %+v", r.App, r)
		}
		// Both proxies are memory-bound: the energy optimum sits at the
		// bottom of the sweep.
		if r.OptEnergyF > 0.7 {
			t.Errorf("%s: energy-optimal frequency %.2f, want low", r.App, r.OptEnergyF)
		}
		if r.OptEnergyJ > r.Joules {
			t.Errorf("%s: optimal energy above nominal", r.App)
		}
	}
}
