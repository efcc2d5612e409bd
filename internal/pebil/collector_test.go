package pebil

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tracex/internal/machine"
	"tracex/internal/synthapp"
)

var fastCfg = CollectorConfig{SampleRefs: 60_000, MaxWarmRefs: 120_000}

func TestCollectorConfigValidate(t *testing.T) {
	good := []CollectorConfig{
		{},
		fastCfg,
		{Workers: 4, BatchSize: 1},
		{SharedHierarchy: true},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []CollectorConfig{
		{SampleRefs: -1},
		{MaxWarmRefs: -1},
		{Workers: -1},
		{BatchSize: -1},
		{BatchSize: maxBatchSize + 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestCollectorConfigNormalized(t *testing.T) {
	a := CollectorConfig{Workers: 3, BatchSize: 17}.Normalized()
	b := CollectorConfig{Workers: 11, BatchSize: 4096}.Normalized()
	if a != b {
		t.Errorf("Normalized forms differ for execution-only knobs: %+v vs %+v", a, b)
	}
	if a.SampleRefs != DefaultSampleRefs || a.MaxWarmRefs != DefaultMaxWarmRefs {
		t.Errorf("Normalized did not fill defaults: %+v", a)
	}
	if a.Workers != 0 || a.BatchSize != 0 {
		t.Errorf("Normalized kept execution knobs: %+v", a)
	}
}

// TestCountersDeterministicAcrossWorkersAndBatch is the tentpole
// determinism guarantee: workers and batch size are execution-only knobs.
func TestCountersDeterministicAcrossWorkersAndBatch(t *testing.T) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	ctx := context.Background()
	col, err := NewCollector(8)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var base []BlockCounters
	for _, cfg := range []CollectorConfig{
		{SampleRefs: 40_000, MaxWarmRefs: 80_000, Workers: 1, BatchSize: 1},
		{SampleRefs: 40_000, MaxWarmRefs: 80_000, Workers: 1, BatchSize: 257},
		{SampleRefs: 40_000, MaxWarmRefs: 80_000, Workers: 8, BatchSize: 4096},
		{SampleRefs: 40_000, MaxWarmRefs: 80_000, Workers: 3, BatchSize: 1 << 15},
	} {
		got, err := col.Counters(ctx, app, 2048, bw, cfg)
		if err != nil {
			t.Fatalf("Counters(%+v): %v", cfg, err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("counters differ for %+v", cfg)
		}
	}
}

func TestCollectorRejectsInvalidConfig(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	col, err := NewCollector(0)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if _, err := col.Counters(context.Background(), app, 64, bw, CollectorConfig{SampleRefs: -5}); err == nil {
		t.Error("negative SampleRefs accepted")
	}
	if _, err := NewCollector(-1); err == nil {
		t.Error("NewCollector accepted a negative worker count")
	}
}

func TestCollectorCloseSemantics(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	col, err := NewCollector(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Counters(context.Background(), app, 64, bw, fastCfg); err != nil {
		t.Fatalf("Counters before Close: %v", err)
	}
	col.Close()
	col.Close() // idempotent
	if _, err := col.Counters(context.Background(), app, 64, bw, fastCfg); !errors.Is(err, ErrArenaClosed) {
		t.Errorf("Counters after Close = %v, want ErrArenaClosed", err)
	}
	if _, err := col.Collect(context.Background(), app, 64, bw, nil, fastCfg); !errors.Is(err, ErrArenaClosed) {
		t.Errorf("Collect after Close = %v, want ErrArenaClosed", err)
	}
}

// TestCancellationPromptNoGoroutineLeak covers the satellite requirement:
// cancelling mid-collection returns well within 100ms and the collector's
// workers wind down completely on Close (goleak-style final-state check).
func TestCancellationPromptNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	col, err := NewCollector(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A sample far larger than any test budget: only cancellation ends it.
	huge := CollectorConfig{SampleRefs: 1 << 30, MaxWarmRefs: 1 << 30}
	errc := make(chan error, 1)
	go func() {
		_, err := col.Counters(ctx, app, 2048, bw, huge)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond) // let workers enter the hot loop
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("cancellation took %v, want <100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collection did not return after cancellation")
	}
	col.Close()
	// Final-state goroutine check: allow the runtime a moment to retire
	// the worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestArenaRunOrderIndependentReduction(t *testing.T) {
	a := NewArena(4)
	defer a.Close()
	out := make([]int, 100)
	err := a.run(context.Background(), 4, len(out), func(i int, _ *scratch) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestArenaRunPrefersRealErrorOverCancellation(t *testing.T) {
	a := NewArena(2)
	defer a.Close()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := a.run(ctx, 2, 8, func(i int, _ *scratch) error {
		if i == 3 {
			cancel()
			return boom
		}
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Errorf("run = %v, want the real error", err)
	}
}

// TestStreamRefsAllocationFree is the per-reference zero-allocation claim:
// once a worker's scratch is warm, streaming any number of references
// through the simulator allocates nothing.
func TestStreamRefsAllocationFree(t *testing.T) {
	app := synthapp.UH3D()
	works, err := app.Work(2048)
	if err != nil {
		t.Fatal(err)
	}
	var s scratch
	bw := machine.BlueWatersP1()
	sim, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	buf := s.slab(DefaultBatchSize)
	ctx := context.Background()
	for i := range works {
		gen := works[i].Gen
		streamRefs(ctx, sim, gen, buf, 8192) // warm the batch path
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := streamRefs(ctx, sim, gen, buf, 65536); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("block %s: streamRefs allocated %.1f objects per 65536 refs, want 0", works[i].Spec.Func, allocs)
		}
	}
}

// TestScratchSimulatorReuse checks the geometry-keyed reuse: same hierarchy
// reuses (and flushes) the worker simulator, a different one rebuilds it.
func TestScratchSimulatorReuse(t *testing.T) {
	var s scratch
	bw := machine.BlueWatersP1()
	sim1, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	sim1.Access(0)
	sim2, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	if sim1 != sim2 {
		t.Error("same geometry did not reuse the simulator")
	}
	if c := sim2.Counters(); c.Refs != 0 {
		t.Errorf("reused simulator not flushed: %d refs", c.Refs)
	}
	kr := machine.Kraken()
	sim3, err := s.simulator(kr)
	if err != nil {
		t.Fatal(err)
	}
	if sim3 == sim1 {
		t.Error("different geometry reused the simulator")
	}
	if got, want := len(sim3.Levels()), len(kr.Caches); got != want {
		t.Errorf("rebuilt simulator has %d levels, want %d", got, want)
	}
	// Same geometry as bw but with the prefetcher: must rebuild, not reuse.
	sim4, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	sim5, err := s.simulator(machine.WithPrefetch(bw))
	if err != nil {
		t.Fatal(err)
	}
	if sim5 == sim4 {
		t.Error("prefetch variant reused the non-prefetching simulator")
	}
}
