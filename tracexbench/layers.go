package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tracex"
	"tracex/internal/obs"
	"tracex/internal/psins"
)

// counters are cumulative per-layer counts a workload state reports; the
// traced run reports their change over its traced phase.
type counters struct {
	// pebilRefs counts references simulated by collections (warm-up plus
	// sample) in the benchmark's own Engine.CollectSignature calls.
	pebilRefs float64
	// replays and predicts count psins replays and predictions, inside the
	// engines and in the benchmark's decomposed predictions alike.
	replays, predicts float64
	// programs, programEvents and programAllocB describe the benchmark's
	// own tracex.Program calls.
	programs, programEvents, programAllocB float64
	// benchReplays, replayEvents and replayAllocB describe the benchmark's
	// own psins.ReplayTraced calls.
	benchReplays, replayEvents, replayAllocB float64
	// memoHits and memoLookups are the engines' profile and signature
	// cache hits and lookups.
	memoHits, memoLookups float64
	// rejected and coalesced are the server's 429 rejections and coalesced
	// requests.
	rejected, coalesced float64
}

func (c counters) minus(o counters) counters {
	return counters{
		pebilRefs: c.pebilRefs - o.pebilRefs,
		replays:   c.replays - o.replays, predicts: c.predicts - o.predicts,
		programs: c.programs - o.programs, programEvents: c.programEvents - o.programEvents,
		programAllocB: c.programAllocB - o.programAllocB,
		benchReplays:  c.benchReplays - o.benchReplays, replayEvents: c.replayEvents - o.replayEvents,
		replayAllocB: c.replayAllocB - o.replayAllocB,
		memoHits:     c.memoHits - o.memoHits, memoLookups: c.memoLookups - o.memoLookups,
		rejected: c.rejected - o.rejected, coalesced: c.coalesced - o.coalesced,
	}
}

// tally is a counters value shared by a state's operations.
type tally struct {
	mu sync.Mutex
	c  counters
}

func (t *tally) add(f func(c *counters)) {
	t.mu.Lock()
	f(&t.c)
	t.mu.Unlock()
}

func (t *tally) get() counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// addEngine adds one engine's cumulative activity: its cache hits and
// lookups, replays and predictions, and simulated references.
func (c *counters) addEngine(e *tracex.Engine) {
	st := e.Stats()
	c.memoHits += float64(st.ProfileHits + st.CollectionHits)
	c.memoLookups += float64(st.ProfileHits + st.ProfileBuilds + st.CollectionHits + st.Collections)
	c.predicts += float64(st.Predictions)
	reg := e.Registry()
	c.replays += float64(reg.Counter("psins.replays").Value())
	c.pebilRefs += float64(reg.Counter("pebil.warm_refs").Value() + reg.Counter("pebil.sample_refs").Value())
}

// outcome is the comparable part of one prediction.
type outcome struct {
	App                             string
	Cores                           int
	Machine                         string
	Runtime, Compute, Comm, Mem, FP float64
	Intervals                       []tracex.Interval
}

func fromPrediction(p *tracex.Prediction) outcome {
	return outcome{
		App: p.App, Cores: p.CoreCount, Machine: p.Machine,
		Runtime: p.Runtime, Compute: p.ComputeSeconds, Comm: p.CommSeconds,
		Mem: p.MemSeconds, FP: p.FPSeconds, Intervals: p.Intervals,
	}
}

// tracedPredict is Engine.Predict's point path taken apart into the public
// layer calls it makes (convolution, program build, replay), each inside a
// span beneath one engine.predict span, so the traced run can attribute a
// prediction's time to psins and mpi. Its outcome must equal Engine.Predict's bit for bit. Replay
// counters land in reg.
func tracedPredict(ctx context.Context, tr *Tracer, parent int, t *tally, reg *obs.Registry,
	app *tracex.App, sig *tracex.Signature, prof *tracex.Profile) (outcome, error) {
	dom := sig.DominantTrace()
	if dom == nil {
		return outcome{}, fmt.Errorf("signature %s@%d has no traces", sig.App, sig.CoreCount)
	}
	parent = tr.Begin("engine", "predict", parent)
	defer tr.End(parent)
	var comp *psins.Computation
	err := tr.Do("psins", "convolve", parent, func() (err error) {
		comp, err = psins.Convolve(dom, prof)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.Begin("mpi", "program", parent)
	prog, err := tracex.Program(app, sig.CoreCount)
	tr.End(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return outcome{}, err
	}
	events := 0
	for _, r := range prog.Ranks {
		events += len(r)
	}
	net, err := psins.NewNetwork(prof.Machine.Network)
	if err != nil {
		return outcome{}, err
	}
	domFactor := app.LoadFactor(dom.Rank)
	lf := func(rank int) float64 { return app.LoadFactor(rank) / domFactor }
	rctx := obs.Into(ctx, reg)
	ev0 := reg.Counter("psins.events").Value()
	var ms2, ms3 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	sp = tr.Begin("psins", "replay", parent)
	res, err := psins.ReplayTraced(rctx, prog, net, psins.CostFromComputation(comp, lf), nil)
	tr.End(sp)
	runtime.ReadMemStats(&ms3)
	if err != nil {
		return outcome{}, err
	}
	ev1 := reg.Counter("psins.events").Value()
	t.add(func(c *counters) {
		c.programs++
		c.programEvents += float64(events)
		c.programAllocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		c.benchReplays++
		c.replayEvents += float64(ev1 - ev0)
		c.replayAllocB += float64(ms3.TotalAlloc - ms2.TotalAlloc)
		c.predicts++
	})
	return outcome{
		App: sig.App, Cores: sig.CoreCount, Machine: sig.Machine,
		Runtime: res.Runtime, Compute: res.ComputeTime[dom.Rank], Comm: res.CommTime[dom.Rank],
		Mem: comp.MemSeconds, FP: comp.FPSeconds,
	}, nil
}

// layerMetrics fills the per-layer metrics of a traced run. Every metric
// is present for every workload; a layer the workload's operations never
// call reports 0.
func layerMetrics(m map[string]Metric, s TraceSummary, d counters, pr probes, overheadMs float64) {
	ops := float64(max(s.Ops, 1))
	self := func(layer string) float64 { return s.SelfMs[layer] / ops }
	call := func(key string) *Sample {
		if c := s.Calls[key]; c != nil {
			return c
		}
		return &Sample{}
	}
	med := func(key string) float64 { return zeroIfEmpty(call(key), call(key).Median()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	collect := call("pebil.collect")
	replay := call("psins.replay")
	var server Sample
	for _, k := range []string{"server.predict", "server.get", "server.put"} {
		server.Merge(call(k))
	}
	set := func(name, unit string, v float64) { m[name] = Metric{v, unit} }

	set("machine.profile_ms", "ms", med("machine.profile"))
	set("machine.self_ms", "ms", self("machine"))
	set("pebil.collect_ms", "ms", med("pebil.collect"))
	set("pebil.self_ms", "ms", self("pebil"))
	set("pebil.refs_simulated", "count", ratio(d.pebilRefs, float64(collect.N())))
	set("pebil.refs_per_us", "1/us", ratio(d.pebilRefs, collect.Sum()*1000))
	set("addrgen.ns_per_ref", "ns", pr.addrgenNsPerRef)
	set("cache.ns_per_ref", "ns", pr.cacheNsPerRef)
	set("extrap.fit_ms", "ms", med("extrap.fit"))
	set("extrap.self_ms", "ms", self("extrap"))
	set("mpi.program_ms", "ms", med("mpi.program"))
	set("mpi.program_events", "count", ratio(d.programEvents, d.programs))
	set("mpi.program_alloc_mb", "MB", ratio(d.programAllocB/1e6, d.programs))
	set("mpi.self_ms", "ms", self("mpi"))
	set("psins.convolve_ms", "ms", med("psins.convolve"))
	set("psins.replay_ms", "ms", med("psins.replay"))
	set("psins.replay_events_per_s", "1/s", ratio(d.replayEvents, replay.Sum()/1000))
	set("psins.replay_alloc_mb", "MB", ratio(d.replayAllocB/1e6, d.benchReplays))
	set("psins.replays_per_predict", "count", ratio(d.replays, d.predicts))
	set("psins.self_ms", "ms", self("psins"))
	set("engine.predict_ms", "ms", med("engine.predict"))
	set("engine.predict_intervals_ms", "ms", med("engine.predict_intervals"))
	set("engine.self_ms", "ms", self("engine"))
	set("engine.memo_hit_ratio", "ratio", ratio(d.memoHits, d.memoLookups))
	set("wire.decode_us", "us", pr.wireDecodeUs)
	set("wire.encode_us", "us", pr.wireEncodeUs)
	set("store.encode_us", "us", pr.storeEncodeUs)
	set("store.decode_us", "us", pr.storeDecodeUs)
	set("server.predict_p50_ms", "ms", med("server.predict"))
	set("server.get_p50_ms", "ms", med("server.get"))
	set("server.put_p50_ms", "ms", med("server.put"))
	set("server.p99_ms", "ms", zeroIfEmpty(&server, server.Percentile(99)))
	set("server.self_ms", "ms", self("server"))
	set("server.rejected_429", "count", d.rejected)
	set("server.coalesced", "count", d.coalesced)
	set("unattributed_ms", "ms", self(rootLayer))
	set("trace_overhead_ms", "ms", overheadMs)
}

func zeroIfEmpty(s *Sample, v float64) float64 {
	if s.N() == 0 {
		return 0
	}
	return v
}
