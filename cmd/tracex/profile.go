package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"

	"tracex"
	"tracex/internal/machine"
	"tracex/internal/multimaps"
)

// cmdProfile runs the MultiMAPS memory benchmark against a machine's
// simulated memory system and writes the resulting machine profile (the
// bandwidth surface of Figure 1 plus machine rates) as JSON — the files
// `predict -profile` reads — and/or prints the surface to w.
func cmdProfile(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	machineName := fs.String("machine", "bluewaters", "machine configuration (see 'tracex machines')")
	out := fs.String("out", "", "output profile path (JSON)")
	show := fs.Bool("print", false, "print the surface (the default without -out)")
	refs := fs.Int("refs", 0, "references per probe (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := tracex.LoadMachine(*machineName)
	if err != nil {
		return err
	}
	opt := multimaps.DefaultOptions(cfg)
	if *refs > 0 {
		opt.RefsPerProbe = *refs
	}
	prof, err := multimaps.Run(ctx, cfg, opt)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := machine.SaveProfile(prof, *out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d surface points for %s to %s\n", len(prof.Surface), cfg.Name, *out)
	}
	if *show || *out == "" {
		printSurface(w, prof)
	}
	return nil
}

// printSurface renders a profile's bandwidth surface, one probe per row.
func printSurface(w io.Writer, prof *tracex.Profile) {
	fmt.Fprintf(w, "%-12s %-8s %-6s", "working_set", "stride", "mixed")
	for _, lv := range prof.Machine.Caches {
		fmt.Fprintf(w, " %8s", lv.Name+" HR")
	}
	fmt.Fprintf(w, " %10s\n", "BW (GB/s)")
	for _, sp := range prof.Surface {
		stride := fmt.Sprintf("%d", sp.StrideBytes)
		if sp.StrideBytes == 0 && sp.ResidentFraction == 0 {
			stride = "rand"
		}
		mixed := "-"
		if sp.ResidentFraction > 0 {
			mixed = fmt.Sprintf("%.3f", sp.ResidentFraction)
		}
		fmt.Fprintf(w, "%-12d %-8s %-6s", sp.WorkingSetBytes, stride, mixed)
		for _, h := range sp.HitRates {
			fmt.Fprintf(w, " %7.2f%%", 100*h)
		}
		fmt.Fprintf(w, " %10.2f\n", sp.BandwidthGBs)
	}
}

// printRanks renders the per-rank view of a prediction made with its
// replay attached: point-to-point message totals, the load classes, and
// the n slowest ranks by finish time.
func printRanks(w io.Writer, app *tracex.App, pred *tracex.Prediction, n int) error {
	prog, err := tracex.Program(app, pred.CoreCount)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  point-to-point messages: %d (%.1f MB total)\n",
		prog.TotalMessages(), float64(prog.TotalBytes())/1e6)
	// Ranks 0..NumClasses-1 cover every load class (ClassOf is rank mod
	// NumClasses).
	classes := make([]int, 0, app.NumClasses())
	for r := 0; r < pred.CoreCount && r < app.NumClasses(); r++ {
		classes = append(classes, r)
	}
	sort.SliceStable(classes, func(i, j int) bool { return app.LoadFactor(classes[i]) > app.LoadFactor(classes[j]) })
	fmt.Fprintf(w, "  load classes (%d):", len(classes))
	for _, r := range classes {
		fmt.Fprintf(w, " rank%d×%.2f", r, app.LoadFactor(r))
	}
	fmt.Fprintln(w)
	replay := pred.Replay
	ranks := make([]int, len(replay.RankEnd))
	for r := range ranks {
		ranks[r] = r
	}
	sort.SliceStable(ranks, func(i, j int) bool { return replay.RankEnd[ranks[i]] > replay.RankEnd[ranks[j]] })
	n = min(n, len(ranks))
	fmt.Fprintf(w, "  slowest %d ranks:\n", n)
	for _, r := range ranks[:n] {
		fmt.Fprintf(w, "    rank %6d: end %.2f s (compute %.2f, comm %.2f)\n",
			r, replay.RankEnd[r], replay.ComputeTime[r], replay.CommTime[r])
	}
	return nil
}
