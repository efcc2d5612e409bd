package main

import (
	"os"
	"path/filepath"
	"testing"

	"tracex/internal/expt"
	"tracex/internal/pebil"
)

// fastCfg keeps the experiment smoke tests cheap; the expt package runs
// every experiment on one engine with unbounded caches, so repeated runs
// are nearly free.
var fastCfg = expt.Config{Collect: pebil.CollectorConfig{Sampling: pebil.FixedSampling(60_000, 400_000)}}

func TestRunnersCoverEveryExperiment(t *testing.T) {
	// The -run dispatcher and the ordered list must agree.
	if len(runnerOrder()) == 0 {
		t.Fatal("no runner order")
	}
	for _, name := range runnerOrder() {
		if _, ok := runnerMap()[name]; !ok {
			t.Errorf("runner %q listed but not registered", name)
		}
	}
}

func TestFigure1Runner(t *testing.T) {
	if err := figure1(fastCfg); err != nil {
		t.Fatalf("figure1: %v", err)
	}
}

func TestTable2RunnerWithCSV(t *testing.T) {
	dir := t.TempDir()
	csvDir = dir
	defer func() { csvDir = "" }()
	if err := table2(fastCfg); err != nil {
		t.Fatalf("table2: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table2.csv")); err != nil {
		t.Errorf("table2.csv not written: %v", err)
	}
}

func TestTable3Runner(t *testing.T) {
	if err := table3(fastCfg); err != nil {
		t.Fatalf("table3: %v", err)
	}
}

func TestFigure45Runners(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	if err := figure45(fastCfg, expt.Figure4, "Figure 4 (test)"); err != nil {
		t.Fatalf("figure4: %v", err)
	}
	if err := figure45(fastCfg, expt.Figure5, "Figure 5 (test)"); err != nil {
		t.Fatalf("figure5: %v", err)
	}
}

func TestCalibrationRunner(t *testing.T) {
	if err := calibrationDemo(fastCfg); err != nil {
		t.Fatalf("calibration: %v", err)
	}
}
