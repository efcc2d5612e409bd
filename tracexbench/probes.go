package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tracex"
	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/pebil"
	"tracex/internal/store"
	"tracex/wire"
)

// probes are per-layer timings on fixed inputs, the same in every
// workload's traced run: kernels that run inside another layer's calls,
// where a span around the benchmark's own call cannot separate them.
type probes struct {
	addrgenNsPerRef, cacheNsPerRef float64
	wireDecodeUs, wireEncodeUs     float64
	storeEncodeUs, storeDecodeUs   float64
}

const (
	// probeRefs is the address-stream length of one kernel probe pass.
	probeRefs = 1 << 21
	// probeReps is how many passes each probe takes; it reports the median.
	probeReps = 3
	// codecIters is how many bodies each wire or store probe pass codes.
	codecIters = 200
)

func runProbes(ctx context.Context) (probes, error) {
	var p probes
	var err error
	if p.addrgenNsPerRef, p.cacheNsPerRef, err = kernelProbe(); err != nil {
		return p, err
	}
	err = codecProbe(ctx, &p)
	return p, err
}

// kernelProbe streams the dominant block of specfem3d at 1536 cores (the
// block with the most references) through addrgen in collection-sized
// slabs, then the same addresses through a simulator of the bluewaters
// hierarchy, and returns nanoseconds per reference of each.
func kernelProbe() (genNs, simNs float64, err error) {
	app, err := tracex.LoadApp(studyReq.app)
	if err != nil {
		return 0, 0, err
	}
	m, err := tracex.LoadMachine(studyReq.machine)
	if err != nil {
		return 0, 0, err
	}
	works, err := app.Work(studyReq.inputs[len(studyReq.inputs)-1])
	if err != nil {
		return 0, 0, err
	}
	dom := 0
	for i := range works {
		if works[i].Refs > works[dom].Refs {
			dom = i
		}
	}
	gen := works[dom].Gen
	addrs := make([]uint64, probeRefs)
	var gens, sims []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < len(addrs); i += pebil.DefaultBatchSize {
			addrgen.FillBatch(gen, addrs[i:min(i+pebil.DefaultBatchSize, len(addrs))])
		}
		gens = append(gens, float64(time.Since(t0).Nanoseconds())/probeRefs)
		sim, err := cache.NewSimulatorOpts(m.Caches, cache.Options{NextLinePrefetch: m.Prefetch})
		if err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		for i := 0; i < len(addrs); i += pebil.DefaultBatchSize {
			sim.AccessBatch(addrs[i:min(i+pebil.DefaultBatchSize, len(addrs))])
		}
		sims = append(sims, float64(time.Since(t0).Nanoseconds())/probeRefs)
		if sim.Counters().Refs == 0 {
			return 0, 0, fmt.Errorf("cache probe simulated no references")
		}
	}
	return medianOf(gens), medianOf(sims), nil
}

// codecProbe times the serving mix's codecs on its largest key's signature:
// wire.DecodeStrict over request bodies in the mix's proportions (six
// predict bodies to one signature PUT body; GETs carry none),
// PredictResponse.AppendJSON, and the store's binary signature codec.
func codecProbe(ctx context.Context, p *probes) error {
	app, err := tracex.LoadApp(serveApp)
	if err != nil {
		return err
	}
	m, err := tracex.LoadMachine(serveMachine)
	if err != nil {
		return err
	}
	eng := tracex.NewEngine(tracex.WithParallelism(1))
	defer eng.Close()
	cores := serveBaseCores + serveKeys - 1
	sig, err := eng.CollectSignature(ctx, app, cores, m, tracex.CollectOptions{SampleRefs: serveSampleRefs})
	if err != nil {
		return err
	}
	predBody, err := json.Marshal(&wire.PredictRequest{App: serveApp, Cores: cores, Machine: serveMachine, SampleRefs: serveSampleRefs})
	if err != nil {
		return err
	}
	putBody, err := json.Marshal(sig)
	if err != nil {
		return err
	}
	type body struct {
		b   []byte
		sig bool
	}
	pred, put := body{predBody, false}, body{putBody, true}
	bodies := []body{pred, pred, pred, pred, pred, pred, put}
	resp := &wire.PredictResponse{
		App: serveApp, Cores: cores, Machine: serveMachine,
		RuntimeSeconds: 0.8734656193847261, ComputeSeconds: 0.7916352048716324,
		CommSeconds: 0.0818304145130937, MemSeconds: 0.6120938475610283, FPSeconds: 0.1795413573106041,
		From: "memory", Model: "exact", Sampling: "fixed:5000",
	}
	var enc bytes.Buffer
	if err := store.Encode(&enc, sig); err != nil {
		return err
	}
	stored := append([]byte(nil), enc.Bytes()...)
	var dec, wenc, senc, sdec []float64
	buf := make([]byte, 0, 512)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < codecIters; i++ {
			b := bodies[i%len(bodies)]
			var err error
			if b.sig {
				err = wire.DecodeStrict(bytes.NewReader(b.b), new(tracex.Signature))
			} else {
				err = wire.DecodeStrict(bytes.NewReader(b.b), new(wire.PredictRequest))
			}
			if err != nil {
				return fmt.Errorf("wire decode: %w", err)
			}
		}
		dec = append(dec, us(time.Since(t0))/codecIters)
		t0 = time.Now()
		for i := 0; i < codecIters; i++ {
			buf = resp.AppendJSON(buf[:0])
		}
		wenc = append(wenc, us(time.Since(t0))/codecIters)
		t0 = time.Now()
		for i := 0; i < codecIters; i++ {
			enc.Reset()
			if err := store.Encode(&enc, sig); err != nil {
				return err
			}
		}
		senc = append(senc, us(time.Since(t0))/codecIters)
		t0 = time.Now()
		for i := 0; i < codecIters; i++ {
			got, err := store.Decode(bytes.NewReader(stored))
			if err != nil {
				return fmt.Errorf("store decode: %w", err)
			}
			if i == 0 {
				if err := sameBits(sig, got); err != nil {
					return fmt.Errorf("store codec round trip: %w", err)
				}
			}
		}
		sdec = append(sdec, us(time.Since(t0))/codecIters)
	}
	p.wireDecodeUs, p.wireEncodeUs = medianOf(dec), medianOf(wenc)
	p.storeEncodeUs, p.storeDecodeUs = medianOf(senc), medianOf(sdec)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
