package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"tracex"
)

// cmdStats wraps any other tracex command: it runs the wrapped command on
// the shared engine, then pretty-prints the engine's observability snapshot
// — cache effectiveness, worker-pool pressure, per-stage wall-clock and
// every pipeline metric — to stderr (so the wrapped command's stdout stays
// clean). The wrapped command's error is preserved; the snapshot prints
// either way, since a partial run's stats are exactly what a failed run
// leaves to debug with.
func cmdStats(ctx context.Context, eng *tracex.Engine, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("stats requires a command to wrap (e.g. 'tracex stats report -app uh3d')")
	}
	if args[0] == "stats" {
		return fmt.Errorf("stats cannot wrap itself")
	}
	handled, err := dispatch(ctx, eng, args[0], args[1:])
	if !handled {
		return fmt.Errorf("unknown command %q", args[0])
	}
	printStats(os.Stderr, eng)
	return err
}

// printStats renders the engine's stats snapshot and metric registry as a
// compact text report.
func printStats(w io.Writer, eng *tracex.Engine) {
	st := eng.Stats()
	fmt.Fprintf(w, "\n== engine stats ==\n")
	fmt.Fprintf(w, "profiles:   %d built, %d cache hits, %d evicted\n",
		st.ProfileBuilds, st.ProfileHits, st.ProfileEvictions)
	fmt.Fprintf(w, "signatures: %d collected, %d cache hits, %d evicted\n",
		st.Collections, st.CollectionHits, st.SignatureEvictions)
	fmt.Fprintf(w, "reuse:      %d profiles recorded, %d memo hits\n",
		st.ReuseCollections, st.ReuseHits)
	fmt.Fprintf(w, "plans:      %d compiled, %d cache hits, %d evicted\n",
		st.PlanBuilds, st.PlanHits, st.PlanEvictions)
	fmt.Fprintf(w, "work:       %d predictions, %d studies; pool %d/%d slots in use\n",
		st.Predictions, st.Studies, st.PoolInFlight, st.PoolCapacity)

	if len(st.Stages) > 0 {
		fmt.Fprintf(w, "\n%-20s %8s %12s %12s\n", "stage", "count", "total (s)", "max (s)")
		for _, s := range st.Stages {
			fmt.Fprintf(w, "%-20s %8d %12.4f %12.4f\n", s.Name, s.Count, s.TotalSeconds, s.MaxSeconds)
		}
	}

	reg := eng.Registry()
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if len(snap.Metrics) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-36s %-10s %s\n", "metric", "type", "value")
	for _, m := range snap.Metrics {
		switch m.Type {
		case "histogram":
			fmt.Fprintf(w, "%-36s %-10s count=%d sum=%.6g\n", m.Name, m.Type, m.Count, m.Sum)
		case "counter":
			fmt.Fprintf(w, "%-36s %-10s %.0f\n", m.Name, m.Type, m.Value)
		default:
			fmt.Fprintf(w, "%-36s %-10s %.6g\n", m.Name, m.Type, m.Value)
		}
	}
}
