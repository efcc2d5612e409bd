package expt

import (
	"context"
	"errors"
	"testing"

	"tracex/internal/pebil"
)

// TestEntryPointsHonourCancelledContext runs every experiment under an
// already-cancelled context: each must stop with an error wrapping
// context.Canceled instead of running its pipeline to completion.
func TestEntryPointsHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// No other test collects with this policy, so no experiment can be
	// served entirely from signatures an earlier test left in the cache.
	cfg := Config{Ctx: ctx, Collect: pebil.CollectorConfig{Sampling: pebil.FixedSampling(12_345, 67_890)}}
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"Table1", func(c Config) error { _, err := Table1(c); return err }},
		{"Table2", func(c Config) error { _, err := Table2(c); return err }},
		{"Table3", func(c Config) error { _, err := Table3(c); return err }},
		{"Figure1", func(c Config) error { _, err := Figure1(c); return err }},
		{"Figure3", func(c Config) error { _, err := Figure3(c); return err }},
		{"Figure4", func(c Config) error { _, err := Figure4(c); return err }},
		{"Figure5", func(c Config) error { _, err := Figure5(c); return err }},
		{"InfluentialElementError", func(c Config) error { _, err := InfluentialElementError(c); return err }},
		{"AblationForms", func(c Config) error { _, err := AblationForms(c); return err }},
		{"AblationInputCounts", func(c Config) error { _, err := AblationInputCounts(c); return err }},
		{"AblationClustering", func(c Config) error { _, err := AblationClustering(c); return err }},
		{"AblationDistance", func(c Config) error { _, err := AblationDistance(c); return err }},
		{"AblationSampleSize", func(c Config) error { _, err := AblationSampleSize(c, nil); return err }},
		{"AblationCollectionMode", func(c Config) error { _, err := AblationCollectionMode(c); return err }},
		{"WeakScaling", func(c Config) error { _, err := WeakScaling(c); return err }},
		{"CrossArch", func(c Config) error { _, err := CrossArch(c); return err }},
		{"ScalingCurve", func(c Config) error { _, err := ScalingCurve(c); return err }},
		{"EnergyDVFS", func(c Config) error { _, err := EnergyDVFS(c); return err }},
		{"PrefetchExploration", func(c Config) error { _, err := PrefetchExploration(c); return err }},
		{"CommExtrap", func(c Config) error { _, err := CommExtrap(c); return err }},
		{"CalibrationDemo", func(c Config) error { _, err := CalibrationDemo(c); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(cfg); !errors.Is(err, context.Canceled) {
				t.Errorf("%s under a cancelled context returned %v, want context.Canceled", tc.name, err)
			}
		})
	}
}
