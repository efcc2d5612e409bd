// Command experiments regenerates every table and figure from the paper's
// evaluation section, plus the repository's ablation studies. Each
// experiment prints the same rows the paper reports, produced by this
// reproduction's pipeline.
//
// Usage:
//
//	experiments -run all [-sample 400000] [-warm 2000000] [-csv DIR]
//	experiments -run NAME  (see -help for the experiment names)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"tracex/internal/expt"
	"tracex/internal/pebil"
)

func main() {
	run := flag.String("run", "all", "experiment to run (all, "+strings.Join(runnerOrder(), ", ")+")")
	sample := flag.Int("sample", 0, "per-block simulated references (0 = default)")
	warm := flag.Int("warm", 0, "per-block warm-up cap (0 = default)")
	flag.StringVar(&csvDir, "csv", "", "also write each exhibit's rows as CSV into this directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := expt.Config{Ctx: ctx, Collect: pebil.CollectorConfig{Sampling: pebil.FixedSampling(*sample, *warm)}}
	runners := runnerMap()
	order := runnerOrder()
	if *run == "all" {
		for _, name := range order {
			if err := runners[name](cfg); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	fn, ok := runners[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s)\n",
			*run, strings.Join(order, ", "))
		os.Exit(2)
	}
	if err := fn(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", *run, err)
		os.Exit(1)
	}
}

// runnerMap registers every experiment by name.
func runnerMap() map[string]func(expt.Config) error {
	return map[string]func(expt.Config) error{
		"table1":  table1,
		"table2":  table2,
		"table3":  table3,
		"figure1": figure1,
		"figure3": figure3,
		"figure4": func(c expt.Config) error {
			return figure45(c, expt.Figure4, "Figure 4: L2 hit rate of uh3d/current_deposit")
		},
		"figure5": func(c expt.Config) error {
			return figure45(c, expt.Figure5, "Figure 5: memory operations of uh3d/field_update")
		},
		"claim":               claim,
		"ablation-forms":      ablationForms,
		"ablation-inputs":     ablationInputs,
		"ablation-clustering": ablationClustering,
		"ablation-sample":     ablationSample,
		"ablation-distance":   ablationDistance,
		"ablation-collection": ablationCollection,
		"weak-scaling":        weakScaling,
		"comm-extrap":         commExtrap,
		"energy-dvfs":         energyDVFS,
		"prefetch":            prefetchExploration,
		"cross-arch":          crossArch,
		"scaling-curve":       scalingCurve,
		"calibration":         calibrationDemo,
	}
}

// runnerOrder lists the experiments in presentation order.
func runnerOrder() []string {
	return []string{
		"table1", "table2", "table3", "figure1", "figure3", "figure4", "figure5", "claim",
		"ablation-forms", "ablation-inputs", "ablation-clustering", "ablation-sample",
		"ablation-distance", "ablation-collection",
		"weak-scaling", "comm-extrap", "energy-dvfs", "prefetch", "cross-arch",
		"scaling-curve", "calibration",
	}
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func table1(cfg expt.Config) error {
	rows, err := expt.Table1(cfg)
	if err != nil {
		return err
	}
	header("Table I: prediction errors using extrapolated and collected traces")
	fmt.Printf("%-12s %6s %-8s %12s %12s %8s\n",
		"Application", "Cores", "Trace", "Predicted(s)", "Measured(s)", "%Error")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %-8s %12.1f %12.1f %7.1f%%\n",
			r.App, r.CoreCount, r.TraceType, r.Predicted, r.Measured, r.PctError)
	}
	return csvTable1(rows)
}

func table2(cfg expt.Config) error {
	rows, err := expt.Table2(cfg)
	if err != nil {
		return err
	}
	header("Table II: target-system cache hit rates of uh3d/field_update vs core count")
	fmt.Printf("%10s %8s %8s %8s\n", "Core Count", "L1 HR", "L2 HR", "L3 HR")
	for _, r := range rows {
		fmt.Printf("%10d %7.1f%% %7.1f%% %7.1f%%\n", r.CoreCount, r.L1, r.L2, r.L3)
	}
	return csvTable2(rows)
}

func table3(cfg expt.Config) error {
	rows, err := expt.Table3(cfg)
	if err != nil {
		return err
	}
	header("Table III: L1 hit rate of specfem3d/flux_lookup_table on two candidate systems")
	fmt.Printf("%10s %16s %16s\n", "Core Count", "A (12 KB L1)", "B (56 KB L1)")
	for _, r := range rows {
		fmt.Printf("%10d %15.1f%% %15.1f%%\n", r.CoreCount, r.SystemA, r.SystemB)
	}
	return csvTable3(rows)
}

func figure1(cfg expt.Config) error {
	rows, err := expt.Figure1(cfg)
	if err != nil {
		return err
	}
	header("Figure 1: MultiMAPS bandwidth surface (opteron2)")
	fmt.Printf("%12s %8s %6s %8s %8s %10s\n",
		"WorkingSet", "Stride", "Mixed", "L1 HR", "L2 HR", "BW (GB/s)")
	for _, r := range rows {
		stride := fmt.Sprintf("%d", r.StrideBytes)
		if r.StrideBytes == 0 && r.ResidentFraction == 0 {
			stride = "rand"
		}
		mixed := "-"
		if r.ResidentFraction > 0 {
			mixed = fmt.Sprintf("%.3f", r.ResidentFraction)
		}
		fmt.Printf("%12d %8s %6s %7.1f%% %7.1f%% %10.2f\n",
			r.WorkingSetBytes, stride, mixed, 100*r.HitRates[0], 100*r.HitRates[1], r.BandwidthGBs)
	}
	return csvFigure1(rows)
}

func figure3(cfg expt.Config) error {
	rows, err := expt.Figure3(cfg)
	if err != nil {
		return err
	}
	header("Figure 3: per-element extrapolation of specfem3d/compute_element_forces (96/384/1536 → 6144)")
	fmt.Printf("%-18s %-12s %36s %14s\n", "Element", "Form", "Inputs", "Extrapolated")
	for _, r := range rows {
		ins := make([]string, len(r.Inputs))
		for i, v := range r.Inputs {
			ins[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Printf("%-18s %-12s %36s %14.6g\n",
			r.Element, r.Form, strings.Join(ins, "  "), r.Extrapolated)
	}
	return nil
}

func figure45(cfg expt.Config, f func(expt.Config) (*expt.FitSeries, error), title string) error {
	fs, err := f(cfg)
	if err != nil {
		return err
	}
	header(title)
	fmt.Printf("%10s %14s", "Cores", "Measured")
	forms := make([]string, 0, len(fs.FitValues))
	for form := range fs.FitValues {
		forms = append(forms, form)
	}
	sort.Strings(forms)
	for _, form := range forms {
		fmt.Printf(" %14s", form)
	}
	fmt.Println()
	for i, x := range fs.Counts {
		fmt.Printf("%10.0f %14.6g", x, fs.Measured[i])
		for _, form := range forms {
			fmt.Printf(" %14.6g", fs.FitValues[form][i])
		}
		fmt.Println()
	}
	fmt.Printf("selected form: %s\n", fs.Selected)
	name := "figure4"
	if fs.Element == "mem_ops" {
		name = "figure5"
	}
	return csvFitSeries(name, fs)
}

func claim(cfg expt.Config) error {
	rows, err := expt.InfluentialElementError(cfg)
	if err != nil {
		return err
	}
	header("Section IV claim: influential-element extrapolation error (<20 %)")
	fmt.Printf("%-12s %8s %10s %10s %10s %-28s\n",
		"Application", "Cores", "Max err", "Mean err", "Elements", "Worst element")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("%-12s %8d %9.1f%% %9.1f%% %4d/%-4d %-28s\n",
			r.App, r.TargetCount, 100*r.MaxError, 100*r.MeanError, r.NumInfluent, r.NumElements, r.WorstElement)
		out = append(out, []string{r.App, itoa(r.TargetCount),
			ftoa(100 * r.MaxError), ftoa(100 * r.MeanError),
			itoa(r.NumInfluent), itoa(r.NumElements), r.WorstElement})
	}
	return csvGeneric("claim",
		[]string{"app", "cores", "max_err_pct", "mean_err_pct", "influential", "elements", "worst"}, out)
}

func ablationForms(cfg expt.Config) error {
	rows, err := expt.AblationForms(cfg)
	if err != nil {
		return err
	}
	header("Ablation: canonical form sets")
	fmt.Printf("%-12s %-24s %10s %10s\n", "Application", "Forms", "Max err", "Mean err")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("%-12s %-24s %9.1f%% %9.1f%%\n", r.App, r.FormSet, 100*r.MaxError, 100*r.MeanErr)
		out = append(out, []string{r.App, r.FormSet, ftoa(100 * r.MaxError), ftoa(100 * r.MeanErr)})
	}
	return csvGeneric("ablation-forms", []string{"app", "form_set", "max_err_pct", "mean_err_pct"}, out)
}

func ablationInputs(cfg expt.Config) error {
	rows, err := expt.AblationInputCounts(cfg)
	if err != nil {
		return err
	}
	header("Ablation: number of input core counts")
	fmt.Printf("%-12s %-28s %10s %10s\n", "Application", "Input counts", "Max err", "Mean err")
	for _, r := range rows {
		ins := make([]string, len(r.Inputs))
		for i, v := range r.Inputs {
			ins[i] = fmt.Sprintf("%d", v)
		}
		fmt.Printf("%-12s %-28s %9.1f%% %9.1f%%\n",
			r.App, strings.Join(ins, ","), 100*r.MaxError, 100*r.MeanErr)
	}
	return nil
}

func ablationClustering(cfg expt.Config) error {
	rows, err := expt.AblationClustering(cfg)
	if err != nil {
		return err
	}
	header("Ablation: rank-scaling strategy (Future Work clustering)")
	fmt.Printf("%-12s %-10s %12s %12s %8s\n", "Application", "Strategy", "Runtime(s)", "Measured(s)", "%Error")
	for _, r := range rows {
		fmt.Printf("%-12s %-10s %12.1f %12.1f %7.1f%%\n",
			r.App, r.Strategy, r.Runtime, r.Measured, r.PctError)
	}
	return nil
}

func ablationCollection(cfg expt.Config) error {
	rows, err := expt.AblationCollectionMode(cfg)
	if err != nil {
		return err
	}
	header("Ablation: signature-collection mode (private vs shared hierarchy)")
	fmt.Printf("%-12s %-8s %12s %12s\n", "Application", "Mode", "Max elem err", "Pred err")
	for _, r := range rows {
		fmt.Printf("%-12s %-8s %11.1f%% %11.1f%%\n",
			r.App, r.Mode, 100*r.MaxError, r.PredErrPct)
	}
	return nil
}

func ablationDistance(cfg expt.Config) error {
	rows, err := expt.AblationDistance(cfg)
	if err != nil {
		return err
	}
	header("Ablation: extrapolation distance")
	fmt.Printf("%-12s %8s %8s %10s %10s\n", "Application", "Target", "Factor", "Max err", "Mean err")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("%-12s %8d %7.0f× %9.1f%% %9.1f%%\n",
			r.App, r.Target, r.Factor, 100*r.MaxError, 100*r.MeanErr)
		out = append(out, []string{r.App, itoa(r.Target), ftoa(r.Factor),
			ftoa(100 * r.MaxError), ftoa(100 * r.MeanErr)})
	}
	return csvGeneric("ablation-distance",
		[]string{"app", "target", "factor", "max_err_pct", "mean_err_pct"}, out)
}

func weakScaling(cfg expt.Config) error {
	rows, err := expt.WeakScaling(cfg)
	if err != nil {
		return err
	}
	header("Extension: weak vs strong scaling (Future Work §VI)")
	fmt.Printf("%-14s %-8s %10s %10s %10s\n", "Application", "Regime", "Max err", "Mean err", "Pred err")
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %9.1f%% %9.2f%% %9.1f%%\n",
			r.App, r.Regime, 100*r.MaxError, 100*r.MeanErr, r.PredErrPct)
	}
	return nil
}

func commExtrap(cfg expt.Config) error {
	rows, err := expt.CommExtrap(cfg)
	if err != nil {
		return err
	}
	header("Extension: communication-trace extrapolation (ScalaExtrap complement)")
	for _, r := range rows {
		fmt.Printf("%s (target comm time: synthesized %.4f s vs actual %.4f s)\n",
			r.App, r.SynthCommSeconds, r.ActualCommSeconds)
		for _, field := range r.SortedFieldNames() {
			fmt.Printf("  %-24s %6.2f%% error\n", field, 100*r.FieldErrors[field])
		}
	}
	return nil
}

func energyDVFS(cfg expt.Config) error {
	rows, err := expt.EnergyDVFS(cfg)
	if err != nil {
		return err
	}
	header("Extension: energy and DVFS from extrapolated traces")
	fmt.Printf("%-12s %6s %12s %10s %12s %10s\n",
		"Application", "Cores", "Energy (J)", "Avg W", "E-opt f/f₀", "EDP-opt")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %12.1f %10.1f %12.2f %10.2f\n",
			r.App, r.CoreCount, r.Joules, r.AvgWatts, r.OptEnergyF, r.OptEDPF)
	}
	return nil
}

func calibrationDemo(cfg expt.Config) error {
	rows, err := expt.CalibrationDemo(cfg)
	if err != nil {
		return err
	}
	header("Extension: machine-profile calibration (inverse problem, ref [27])")
	fmt.Printf("%-12s %14s %14s %14s %10s\n",
		"Application", "Distorted err", "Calibrated err", "Recovered MLP", "True MLP")
	for _, r := range rows {
		fmt.Printf("%-12s %13.1f%% %13.2f%% %14.2f %10.1f\n",
			r.App, 100*r.DistortedErr, 100*r.CalibratedErr, r.RecoveredMLP, r.TrueMLP)
	}
	return nil
}

func scalingCurve(cfg expt.Config) error {
	rows, err := expt.ScalingCurve(cfg)
	if err != nil {
		return err
	}
	header("Extension: predicted strong-scaling curve (uh3d on bluewaters)")
	fmt.Printf("%8s %14s %14s %8s %12s\n",
		"Cores", "Predicted (s)", "Measured (s)", "%Error", "Efficiency")
	for _, r := range rows {
		fmt.Printf("%8d %14.1f %14.1f %7.1f%% %11.2f\n",
			r.CoreCount, r.Predicted, r.Measured, r.PctError, r.Efficiency)
	}
	return csvScalingCurve(rows)
}

func crossArch(cfg expt.Config) error {
	rows, err := expt.CrossArch(cfg)
	if err != nil {
		return err
	}
	header("Extension: cross-architectural prediction (paper §III-A)")
	fmt.Printf("%-12s %-12s %6s %14s %14s %8s\n",
		"Application", "Machine", "Cores", "Predicted (s)", "Measured (s)", "%Error")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("%-12s %-12s %6d %14.1f %14.1f %7.1f%%\n",
			r.App, r.Machine, r.CoreCount, r.Predicted, r.Measured, r.PctError)
		out = append(out, []string{r.App, r.Machine, itoa(r.CoreCount),
			ftoa(r.Predicted), ftoa(r.Measured), ftoa(r.PctError)})
	}
	return csvGeneric("cross-arch",
		[]string{"app", "machine", "cores", "predicted_s", "measured_s", "pct_error"}, out)
}

func prefetchExploration(cfg expt.Config) error {
	rows, err := expt.PrefetchExploration(cfg)
	if err != nil {
		return err
	}
	header("Extension: hardware-prefetcher exploration (Table III-style design study)")
	fmt.Printf("%-12s %6s %14s %14s %10s\n",
		"Application", "Cores", "Baseline (s)", "Prefetch (s)", "Speedup")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %14.1f %14.1f %9.1f%%\n",
			r.App, r.CoreCount, r.Baseline, r.Prefetched, r.SpeedupPct)
	}
	return nil
}

func ablationSample(cfg expt.Config) error {
	rows, err := expt.AblationSampleSize(cfg, nil)
	if err != nil {
		return err
	}
	header("Ablation: per-block simulation sample size")
	fmt.Printf("%-12s %12s %10s\n", "Application", "Sample refs", "Max err")
	for _, r := range rows {
		fmt.Printf("%-12s %12d %9.1f%%\n", r.App, r.SampleRefs, 100*r.MaxError)
	}
	return nil
}
