// Package expt is the experiment harness: one entry point per table and
// figure in the paper's evaluation, each returning structured rows that the
// cmd/experiments tool renders and the repository's benchmarks regenerate.
// Paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package expt

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tracex"
	"tracex/internal/extrap"
	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/stats"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// Config tunes the harness. The zero value runs the paper-scale experiments
// with default collection settings.
type Config struct {
	// Collect tunes signature collection (sampling and warm-up sizes).
	Collect pebil.CollectorConfig
	// Ctx cancels long experiment pipelines mid-simulation; nil means
	// context.Background() (run to completion).
	Ctx context.Context
}

// context returns the configured context, defaulting to Background.
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// engine is the one tracex.Engine every experiment runs on. The experiments
// share inputs heavily (Table I, the §IV claim and every ablation trace the
// same paper-scale runs), so its caches are unbounded: each profile,
// signature and replay plan is simulated once per process.
var engine = sync.OnceValue(func() *tracex.Engine {
	return tracex.NewEngine(tracex.WithCacheSize(-1))
})

// Spec pins the paper's experimental setup for one application.
type Spec struct {
	App         string
	InputCounts []int
	TargetCount int
}

// PaperSpecs returns the two applications exactly as the paper evaluates
// them: SPECFEM3D extrapolated from 96/384/1536 to 6144 cores and UH3D from
// 1024/2048/4096 to 8192 cores, both targeting the Phase-I Blue Waters
// model.
func PaperSpecs() []Spec {
	return []Spec{
		{App: "specfem3d", InputCounts: []int{96, 384, 1536}, TargetCount: 6144},
		{App: "uh3d", InputCounts: []int{1024, 2048, 4096}, TargetCount: 8192},
	}
}

// TargetMachine returns the prediction target used throughout the
// evaluation.
func TargetMachine() machine.Config { return machine.BlueWatersP1() }

// pctErr is the percentage error of a predicted runtime against the
// measured one.
func pctErr(predicted, measured float64) float64 {
	return 100 * math.Abs(predicted-measured) / measured
}

// influence summarizes the element errors of an extrapolated trace against
// the collected one over the influential blocks (>0.1 % of memory
// operations).
type influence struct {
	elements, influential int
	max, mean             float64
	worst                 string // block/element of the max error
}

// compareTruth compares the rank-0 traces of an extrapolated and a
// collected signature.
func compareTruth(extrapolated, truth *trace.Signature) (influence, error) {
	errs, err := extrap.Compare(&extrapolated.Traces[0], &truth.Traces[0])
	if err != nil {
		return influence{}, err
	}
	infl := extrap.InfluentialErrors(errs)
	r := influence{elements: len(errs), influential: len(infl)}
	var sum float64
	for _, e := range infl {
		sum += e.AbsRelErr
		if e.AbsRelErr > r.max {
			r.max = e.AbsRelErr
			r.worst = e.Func + "/" + e.Element
		}
	}
	if len(infl) > 0 {
		r.mean = sum / float64(len(infl))
	}
	return r, nil
}

// rank0Block collects app at p cores and returns the named block of the
// dominant rank's trace.
func rank0Block(ctx context.Context, app *synthapp.App, p int, target machine.Config, opt pebil.CollectorConfig, blockFunc string) (*trace.Block, error) {
	sig, err := engine().CollectSignature(ctx, app, p, target, opt)
	if err != nil {
		return nil, err
	}
	tr := &sig.Traces[0]
	for i := range tr.Blocks {
		if tr.Blocks[i].Func == blockFunc {
			return &tr.Blocks[i], nil
		}
	}
	return nil, fmt.Errorf("expt: block %q missing at %d cores on %s", blockFunc, p, target.Name)
}

// Table1Row is one line of Table I: the runtime predicted from one kind of
// trace, against the measured runtime.
type Table1Row struct {
	App       string
	CoreCount int
	TraceType string // "Extrap." or "Coll."
	Predicted float64
	Measured  float64
	PctError  float64
}

// Table1 reproduces Table I: for each application, predict the target-scale
// runtime twice — once from the extrapolated trace and once from the
// actually-collected trace — and compare both against the detailed
// simulation's measured runtime.
func Table1(cfg Config) ([]Table1Row, error) {
	ctx, target := cfg.context(), TargetMachine()
	var rows []Table1Row
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		res, err := engine().Study(ctx, tracex.StudyRequest{
			App: app, Machine: target, InputCounts: spec.InputCounts,
			TargetCores: spec.TargetCount, Collect: cfg.Collect, WithTruth: true,
		})
		if err != nil {
			return nil, err
		}
		measured, err := engine().Measure(ctx, app, spec.TargetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		t := res.Targets[0]
		for _, tc := range []struct {
			kind string
			pred *tracex.Prediction
		}{
			{"Extrap.", t.Extrapolated},
			{"Coll.", t.Collected},
		} {
			rows = append(rows, Table1Row{
				App:       spec.App,
				CoreCount: spec.TargetCount,
				TraceType: tc.kind,
				Predicted: tc.pred.Runtime,
				Measured:  measured.Runtime,
				PctError:  pctErr(tc.pred.Runtime, measured.Runtime),
			})
		}
	}
	return rows, nil
}

// Table2Row is one line of Table II: a basic block's cumulative cache hit
// rates on the target system at one core count.
type Table2Row struct {
	CoreCount  int
	L1, L2, L3 float64 // percent
}

// Table2 reproduces Table II: the target-system cache hit rates of the UH3D
// field_update block as the core count increases and its shrinking working
// set drains into the deeper cache levels.
func Table2(cfg Config) ([]Table2Row, error) {
	app, err := synthapp.ByName("uh3d")
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, p := range []int{1024, 2048, 4096, 8192} {
		blk, err := rank0Block(cfg.context(), app, p, TargetMachine(), cfg.Collect, "field_update")
		if err != nil {
			return nil, err
		}
		r := blk.FV.HitRates
		rows = append(rows, Table2Row{CoreCount: p, L1: 100 * r[0], L2: 100 * r[1], L3: 100 * r[2]})
	}
	return rows, nil
}

// Table3Row is one line of Table III: a block's L1 hit rate on two candidate
// systems at one core count.
type Table3Row struct {
	CoreCount        int
	SystemA, SystemB float64 // percent (12 KB and 56 KB L1)
}

// Table3 reproduces Table III: the L1 hit rate of the SPECFEM3D
// flux_lookup_table block on two target systems that differ only in L1 size
// (12 KB vs 56 KB), across the paper's SPECFEM3D core counts. The block's
// fixed per-rank footprint keeps the rate flat in core count but residency
// flips with the candidate L1 size.
func Table3(cfg Config) ([]Table3Row, error) {
	app, err := synthapp.ByName("specfem3d")
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, p := range []int{96, 384, 1536, 6144} {
		row := Table3Row{CoreCount: p}
		for _, sys := range []struct {
			cfg  machine.Config
			dest *float64
		}{
			{machine.SystemA12KB(), &row.SystemA},
			{machine.SystemB56KB(), &row.SystemB},
		} {
			blk, err := rank0Block(cfg.context(), app, p, sys.cfg, cfg.Collect, "flux_lookup_table")
			if err != nil {
				return nil, err
			}
			*sys.dest = 100 * blk.FV.HitRates[0]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure1Row is one point of the MultiMAPS bandwidth surface (Figure 1).
type Figure1Row struct {
	WorkingSetBytes  uint64
	StrideBytes      uint64
	ResidentFraction float64
	HitRates         []float64
	BandwidthGBs     float64
}

// Figure1 reproduces Figure 1: the MultiMAPS surface of the two-cache-level
// Opteron — measured bandwidth as a function of the cache hit rates each
// probe achieves. A cancelled context fails it even when the profile is
// already cached, since the profile is all it computes.
func Figure1(cfg Config) ([]Figure1Row, error) {
	ctx := cfg.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof, err := engine().Profile(ctx, machine.Opteron2L())
	if err != nil {
		return nil, err
	}
	rows := make([]Figure1Row, 0, len(prof.Surface))
	for _, sp := range prof.Surface {
		rows = append(rows, Figure1Row{
			WorkingSetBytes:  sp.WorkingSetBytes,
			StrideBytes:      sp.StrideBytes,
			ResidentFraction: sp.ResidentFraction,
			HitRates:         sp.HitRates,
			BandwidthGBs:     sp.BandwidthGBs,
		})
	}
	return rows, nil
}

// FitSeries is a feature-element series across core counts with every
// canonical form's fit, as rendered in Figures 4 and 5.
type FitSeries struct {
	App      string
	Block    string
	Element  string
	Counts   []float64
	Measured []float64
	// FitValues[form][i] is form's fitted value at Counts[i].
	FitValues map[string][]float64
	// Selected is the winning canonical form.
	Selected string
}

// fitSeries collects one block element across counts and fits all forms.
func fitSeries(appName, blockFunc, element string, counts []int, cfg Config) (*FitSeries, error) {
	app, err := synthapp.ByName(appName)
	if err != nil {
		return nil, err
	}
	target := TargetMachine()
	names := trace.ElementNames(len(target.Caches))
	elemIdx := -1
	for i, n := range names {
		if n == element {
			elemIdx = i
		}
	}
	if elemIdx < 0 {
		return nil, fmt.Errorf("expt: unknown element %q", element)
	}
	fs := &FitSeries{App: appName, Block: blockFunc, Element: element, FitValues: map[string][]float64{}}
	for _, p := range counts {
		blk, err := rank0Block(cfg.context(), app, p, target, cfg.Collect, blockFunc)
		if err != nil {
			return nil, err
		}
		vals, err := blk.FV.Values(len(target.Caches))
		if err != nil {
			return nil, err
		}
		fs.Counts = append(fs.Counts, float64(p))
		fs.Measured = append(fs.Measured, vals[elemIdx])
	}
	sel := stats.NewSelector(nil)
	all, err := sel.FitAll(fs.Counts, fs.Measured)
	if err != nil {
		return nil, err
	}
	for form, fr := range all {
		vals := make([]float64, len(fs.Counts))
		for i, x := range fs.Counts {
			vals[i] = fr.Model.Eval(x)
		}
		fs.FitValues[form] = vals
	}
	best, err := sel.Select(fs.Counts, fs.Measured)
	if err != nil {
		return nil, err
	}
	fs.Selected = best.Model.Name()
	return fs, nil
}

// Figure4 reproduces Figure 4: the linearly rising L2 hit rate of a single
// block (UH3D current_deposit) across core counts, with all four canonical
// fits; the linear model captures the behaviour.
func Figure4(cfg Config) (*FitSeries, error) {
	return fitSeries("uh3d", "current_deposit", "hit_rate_L2", []int{1024, 2048, 4096, 8192}, cfg)
}

// Figure5 reproduces Figure 5: the logarithmically growing memory-operation
// count of a single block (UH3D field_update) across core counts, with all
// four canonical fits; the logarithmic model captures the behaviour.
func Figure5(cfg Config) (*FitSeries, error) {
	return fitSeries("uh3d", "field_update", "mem_ops", []int{1024, 2048, 4096, 8192}, cfg)
}

// Figure3Row shows one extrapolated element of a single block — the
// per-element extrapolation of Figure 3.
type Figure3Row struct {
	Element      string
	Form         string
	Inputs       []float64
	Extrapolated float64
}

// Figure3 demonstrates Figure 3's principle on the SPECFEM3D dominant
// block: each element of the block's feature vector is fitted and
// extrapolated independently.
func Figure3(cfg Config) ([]Figure3Row, error) {
	app, err := synthapp.ByName("specfem3d")
	if err != nil {
		return nil, err
	}
	ctx, target, spec := cfg.context(), TargetMachine(), PaperSpecs()[0]
	inputs, err := engine().CollectInputs(ctx, app, spec.InputCounts, target, cfg.Collect)
	if err != nil {
		return nil, err
	}
	res, err := engine().Extrapolate(ctx, inputs, spec.TargetCount, extrap.Options{})
	if err != nil {
		return nil, err
	}
	const blockID = 1 // compute_element_forces
	fits := res.FitsFor(blockID)
	names := trace.ElementNames(len(target.Caches))
	var rows []Figure3Row
	for i, name := range names {
		f, ok := fits[name]
		if !ok {
			return nil, fmt.Errorf("expt: no fit for element %s", name)
		}
		var series []float64
		for _, sig := range inputs {
			blk := sig.DominantTrace().BlockByID()[blockID]
			vals, err := blk.FV.Values(len(target.Caches))
			if err != nil {
				return nil, err
			}
			series = append(series, vals[i])
		}
		rows = append(rows, Figure3Row{
			Element:      name,
			Form:         f.Form,
			Inputs:       series,
			Extrapolated: f.Extrapolated,
		})
	}
	return rows, nil
}

// InfluentialErrorResult summarizes the paper's in-text Section IV claim
// for one application: the distribution of absolute relative errors over
// the extrapolated elements of influential blocks.
type InfluentialErrorResult struct {
	App          string
	TargetCount  int
	MaxError     float64 // fraction, paper claims < 0.20
	MeanError    float64
	NumElements  int
	NumInfluent  int
	WorstElement string
}

// InfluentialElementError reproduces the Section IV in-text claim: every
// extrapolated element of every influential block (>0.1 % of memory
// operations) has an absolute relative error below 20 %.
func InfluentialElementError(cfg Config) ([]InfluentialErrorResult, error) {
	ctx, target := cfg.context(), TargetMachine()
	var out []InfluentialErrorResult
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		inputs, err := engine().CollectInputs(ctx, app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		res, err := engine().Extrapolate(ctx, inputs, spec.TargetCount, extrap.Options{})
		if err != nil {
			return nil, err
		}
		truth, err := engine().CollectSignature(ctx, app, spec.TargetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		in, err := compareTruth(res.Signature, truth)
		if err != nil {
			return nil, err
		}
		out = append(out, InfluentialErrorResult{
			App:          spec.App,
			TargetCount:  spec.TargetCount,
			MaxError:     in.max,
			MeanError:    in.mean,
			NumElements:  in.elements,
			NumInfluent:  in.influential,
			WorstElement: in.worst,
		})
	}
	return out, nil
}
