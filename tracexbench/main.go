// Command tracexbench is the tracex benchmark: three workloads that stress
// different layers of the system (a cold extrapolation study, warm
// predictions at scale, and a mixed serving load), each measured end to end
// with tracing off, and in a separate traced run broken down by layer.
//
// Build and run it through run.py from the repository root:
//
//	python3 tracexbench/run.py --workload study-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md describes the workloads,
// the metrics and the layer each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setups is how many times a run builds its workload state; setup_s is
// the median, and only the last state is measured.
const setups = 3

// runDeadline bounds a whole run; the benchmark must exit within 180 s.
const runDeadline = 160 * time.Second

// env is what every workload's setup receives.
type env struct {
	// par bounds GOMAXPROCS, engine parallelism and client connections.
	par int
	// seed drives the workloads that draw random inputs.
	seed uint64
	// workdir holds on-disk state (the serving workload's store).
	workdir string
}

// state is one built workload, ready to run operations.
type state interface {
	// Op runs one operation on worker w and checks its output; a non-nil
	// error marks the operation failed. kind names the operation for the
	// per-kind latency summary. Under a non-nil tracer the operation
	// records spans beneath root.
	Op(ctx context.Context, w int, rng *rand.Rand, tr *Tracer, root int) (kind string, err error)
	// Agree checks this state's reference outputs against an earlier
	// set-up of the same workload in the same run.
	Agree(prev state) error
	// ErrPct is the extrapolation error in percent the workload checked.
	ErrPct() float64
	// Counters returns cumulative layer counters (see counters).
	Counters() counters
	// Close releases the state's engines, servers and files.
	Close() error
}

// workload names a state constructor and its closed-loop concurrency.
type workload struct {
	name    string
	workers int
	setup   func(ctx context.Context, e env) (state, error)
}

func workloads(par int) []workload {
	return []workload{
		{name: "study-cold", workers: 1, setup: setupStudy},
		{name: "predict-warm", workers: 1, setup: setupPredict},
		{name: "serve-mixed", workers: par, setup: setupServe},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: study-cold, predict-warm or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed for the workload's random inputs")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	workdir := flag.String("workdir", ".bench_build/work", "directory for on-disk state")
	flag.Parse()

	par := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(par)
	var wl *workload
	for _, w := range workloads(par) {
		if w.name == *name {
			wl = &w
			break
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "tracexbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	e := env{par: par, seed: *seed, workdir: *workdir}
	res, err := run(ctx, *wl, e, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracexbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracexbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// loopStats is what one closed-loop measurement observed.
type loopStats struct {
	all       Sample
	byKind    map[string]*Sample
	attempted int
	failed    int
	wall      time.Duration
	allocB    uint64
	// cpu is the process's user+system CPU time over the loop.
	cpu time.Duration
	// stealPct is the share of the machine's CPU time stolen by the
	// hypervisor during the loop, -1 when unknown.
	stealPct float64
}

func run(ctx context.Context, wl workload, e env, dur time.Duration, traced bool) (*Result, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return nil, err
	}
	var st state
	closeState := func(s state) {
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tracexbench: %s: releasing a set-up: %v\n", wl.name, err)
		}
	}
	defer func() {
		if st != nil {
			closeState(st)
		}
	}()
	var setupS []float64
	var checkErrs []error
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		next, err := wl.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if st != nil {
			if err := next.Agree(st); err != nil {
				checkErrs = append(checkErrs, fmt.Errorf("set-up %d disagrees with set-up %d: %w", i+1, i, err))
			}
			closeState(st)
		}
		st = next
	}
	fmt.Printf("%s: set-up %s s (median of %d)\n", wl.name, fmtList(setupS), setups)
	if err := checkErrPct(wl.name, st.ErrPct()); err != nil {
		checkErrs = append(checkErrs, err)
	}

	res := &Result{Metrics: map[string]Metric{}}
	if !traced {
		ls := loop(ctx, st, wl.workers, e.seed, dur, nil)
		report(wl.name, "untraced", ls)
		res.Attempted, res.Failed = ls.attempted, ls.failed
		n := float64(ls.all.N())
		res.Metrics["setup_s"] = Metric{medianOf(setupS), "s"}
		res.Metrics["op_p50_ms"] = Metric{ls.all.Median(), "ms"}
		res.Metrics["alloc_mb_per_op"] = Metric{float64(ls.allocB) / 1e6 / n, "MB"}
		res.Metrics["extrap_err_pct"] = Metric{st.ErrPct(), "%"}
	} else {
		// Half the time untraced, half traced, on the same state: the
		// difference of the two medians is the tracing overhead.
		plain := loop(ctx, st, wl.workers, e.seed, dur/2, nil)
		report(wl.name, "untraced", plain)
		tr := NewTracer()
		before := st.Counters()
		tl := loop(ctx, st, wl.workers, e.seed+1, dur/2, tr)
		report(wl.name, "traced", tl)
		delta := st.Counters().minus(before)
		res.Attempted = plain.attempted + tl.attempted
		res.Failed = plain.failed + tl.failed
		pr, err := runProbes(ctx)
		if err != nil {
			checkErrs = append(checkErrs, fmt.Errorf("layer probes: %w", err))
		}
		layerMetrics(res.Metrics, tr.Summary(), delta, pr, tl.all.Median()-plain.all.Median())
	}
	for _, err := range checkErrs {
		fmt.Fprintf(os.Stderr, "tracexbench: %s: check failed: %v\n", wl.name, err)
	}
	res.Correct = len(checkErrs) == 0 && res.Failed == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return res, nil
}

// maxLoggedFailures caps the per-run failure messages on standard error.
const maxLoggedFailures = 5

// loop runs a closed loop: workers each issue their next operation when
// the previous one completes, until dur has passed (every worker issues at
// least one). It measures each operation's latency, the loop's wall time
// and the bytes allocated meanwhile.
func loop(ctx context.Context, st state, workers int, seed uint64, dur time.Duration, tr *Tracer) *loopStats {
	runtime.GC()
	ls := &loopStats{byKind: map[string]*Sample{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, steal0 := cpuTime(), readSteal()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			for first := true; first || (time.Since(start) < dur && ctx.Err() == nil); first = false {
				root := tr.Begin(rootLayer, "op", -1)
				t0 := time.Now()
				kind, err := st.Op(ctx, w, rng, tr, root)
				d := time.Since(t0)
				tr.End(root)
				mu.Lock()
				ls.attempted++
				if err != nil {
					ls.failed++
					if ls.failed <= maxLoggedFailures {
						fmt.Fprintf(os.Stderr, "tracexbench: %s failed: %v\n", kind, err)
					}
				} else {
					ls.all.Add(d)
					if ls.byKind[kind] == nil {
						ls.byKind[kind] = &Sample{}
					}
					ls.byKind[kind].Add(d)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	ls.wall = time.Since(start)
	ls.cpu = cpuTime() - cpu0
	ls.stealPct = steal0.pctTo(readSteal())
	runtime.ReadMemStats(&ms1)
	ls.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return ls
}

// report prints a human-readable summary of one loop: per operation kind,
// the median and the highest of p90/p99 with at least ten samples beyond
// it, with sample counts.
func report(name, phase string, ls *loopStats) {
	steal := "unknown"
	if ls.stealPct >= 0 {
		steal = fmt.Sprintf("%.1f%%", ls.stealPct)
	}
	fmt.Printf("%s %s: %d attempted, %d failed, %.1f s, %.1f ops/s, %.3f CPU ms/op, %s of machine CPU stolen\n",
		name, phase, ls.attempted, ls.failed, ls.wall.Seconds(), float64(ls.all.N())/ls.wall.Seconds(),
		ms(ls.cpu)/float64(max(ls.all.N(), 1)), steal)
	kinds := make([]string, 0, len(ls.byKind))
	for k := range ls.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range append(kinds, "all") {
		s := ls.byKind[k]
		if k == "all" {
			s = &ls.all
		}
		if s == nil || s.N() == 0 {
			continue
		}
		line := fmt.Sprintf("  %-12s n=%-6d min %.3f  p50 %.3f  max %.3f ms", k, s.N(), s.Percentile(0), s.Median(), s.Percentile(100))
		for _, p := range []float64{99, 90} {
			if s.Beyond(p) >= 10 {
				line += fmt.Sprintf("  p%g %.3f ms (%d beyond)", p, s.Percentile(p), s.Beyond(p))
				break
			}
		}
		fmt.Println(line)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
