package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"time"

	"tracex"
	"tracex/client"
	"tracex/internal/obs"
	"tracex/internal/server"
	"tracex/wire"
)

// serve-mixed: an in-process tracexd (internal/server on loopback, with a
// signature store) seeded with stencil3d at 8..39 cores on bluewaters, the
// identity space of the tracexload harness. A closed loop of par clients
// sends predict, get and put in the ratio 6:3:1 with keys drawn uniformly
// from the seed. Each replay is tiny, so the wire, server, store and memo
// layers carry the cost, with reads and writes side by side.
const (
	serveApp        = "stencil3d"
	serveMachine    = "bluewaters"
	serveBaseCores  = 8
	serveKeys       = 32
	serveSampleRefs = 5000
)

// serveMix weights the operations: predict, get, put.
var serveMix = [3]struct {
	kind   string
	weight int
}{{"predict", 6}, {"get", 3}, {"put", 1}}

// serveExtrap names the seeded core counts whose extrapolation to the
// largest key is the workload's fidelity check.
var serveExtrap = struct {
	inputs []int
	target int
}{[]int{8, 16, 32}, serveBaseCores + serveKeys - 1}

type serveState struct {
	dir    string
	eng    *tracex.Engine
	srv    *server.Server
	base   string
	hc     *http.Client
	cl     *client.Client
	sigs   []*tracex.Signature
	keys   []string
	hashes []string
	preds  []*wire.PredictRequest
	// ref holds each key's prediction from an independent in-process
	// engine, the oracle for every HTTP predict.
	ref    []outcome
	errPct float64
}

func setupServe(ctx context.Context, e env) (st state, err error) {
	s := &serveState{
		sigs:   make([]*tracex.Signature, serveKeys),
		keys:   make([]string, serveKeys),
		hashes: make([]string, serveKeys),
		preds:  make([]*wire.PredictRequest, serveKeys),
		ref:    make([]outcome, serveKeys),
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.dir, err = os.MkdirTemp(e.workdir, "serve-store-"); err != nil {
		return nil, err
	}
	s.eng = tracex.NewEngine(tracex.WithParallelism(e.par), tracex.WithStore(s.dir))
	if err := s.eng.Err(); err != nil {
		return nil, err
	}
	if s.srv, err = server.New(server.Config{Engine: s.eng, MaxInFlight: e.par}); err != nil {
		return nil, err
	}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + addr.String()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.par, MaxIdleConnsPerHost: e.par}}
	// No retries: a 429 or any other error response counts as a failed
	// operation.
	s.cl = client.New(s.base, client.WithHTTPClient(s.hc))

	// Seed every key the way tracexload does: collect through the API,
	// then PUT the result into the store.
	keys := make(chan int, serveKeys)
	for k := 0; k < serveKeys; k++ {
		keys <- k
	}
	close(keys)
	errs := make([]error, serveKeys)
	var wg sync.WaitGroup
	for w := 0; w < e.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				errs[k] = s.seed(ctx, k)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// One predict warms the server engine's machine profile.
	if _, err := s.cl.Predict(ctx, s.preds[0]); err != nil {
		return nil, fmt.Errorf("warm-up predict: %w", err)
	}
	if err := s.reference(ctx, e.par); err != nil {
		return nil, err
	}
	return s, nil
}

// seed collects key k through the server and stores it.
func (s *serveState) seed(ctx context.Context, k int) error {
	cores := serveBaseCores + k
	coll, err := s.cl.Collect(ctx, &wire.SignatureRequest{
		App: serveApp, Cores: cores, Machine: serveMachine, SampleRefs: serveSampleRefs,
	})
	if err != nil {
		return fmt.Errorf("seeding collect at %d cores: %w", cores, err)
	}
	key := client.Key(serveApp, cores, serveMachine)
	put, err := s.cl.PutSignature(ctx, key, coll.Signature)
	if err != nil {
		return fmt.Errorf("seeding put %s: %w", key, err)
	}
	s.sigs[k], s.keys[k], s.hashes[k] = coll.Signature, key, put.Hash
	s.preds[k] = &wire.PredictRequest{App: serveApp, Cores: cores, Machine: serveMachine, SampleRefs: serveSampleRefs}
	return nil
}

// reference computes each key's prediction on a fresh in-process engine
// from the seeded signature, and the fidelity check.
func (s *serveState) reference(ctx context.Context, par int) error {
	app, err := tracex.LoadApp(serveApp)
	if err != nil {
		return err
	}
	ref := tracex.NewEngine(tracex.WithParallelism(par))
	defer ref.Close()
	for k, sig := range s.sigs {
		p, err := ref.Predict(ctx, tracex.PredictRequest{Signature: sig, App: app})
		if err != nil {
			return err
		}
		s.ref[k] = fromPrediction(p)
	}
	inputs := make([]*tracex.Signature, len(serveExtrap.inputs))
	for i, c := range serveExtrap.inputs {
		inputs[i] = s.sigs[c-serveBaseCores]
	}
	ext, err := ref.Extrapolate(ctx, inputs, serveExtrap.target, tracex.ExtrapOptions{})
	if err != nil {
		return err
	}
	p, err := ref.Predict(ctx, tracex.PredictRequest{Signature: ext.Signature, App: app})
	if err != nil {
		return err
	}
	s.errPct = errPct(p.Runtime, s.ref[serveExtrap.target-serveBaseCores].Runtime)
	return nil
}

func (s *serveState) Agree(prev state) error {
	p := prev.(*serveState)
	return errors.Join(sameBits(p.sigs, s.sigs), sameBits(p.ref, s.ref), sameBits(p.hashes, s.hashes))
}

func (s *serveState) ErrPct() float64 { return s.errPct }

func (s *serveState) Counters() counters {
	var c counters
	c.addEngine(s.eng)
	// The server's own counters, read the way an operator would: from
	// GET /metrics.
	snap, err := s.metrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracexbench: reading /metrics: %v\n", err)
		return c
	}
	for _, m := range snap.Metrics {
		switch m.Name {
		case "server.rejected":
			c.rejected = m.Value
		case "server.coalesced":
			c.coalesced = m.Value
		}
	}
	return c
}

func (s *serveState) metrics() (*obs.Snapshot, error) {
	resp, err := s.hc.Get(s.base + wire.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func (s *serveState) Close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

func (s *serveState) Op(ctx context.Context, _ int, rng *rand.Rand, tr *Tracer, root int) (string, error) {
	total := 0
	for _, m := range serveMix {
		total += m.weight
	}
	pick := rng.IntN(total)
	kind := serveMix[0].kind
	for _, m := range serveMix {
		if pick < m.weight {
			kind = m.kind
			break
		}
		pick -= m.weight
	}
	k := rng.IntN(serveKeys)
	sp := tr.Begin("server", kind, root)
	defer tr.End(sp)
	switch kind {
	case "predict":
		resp, err := s.cl.Predict(ctx, s.preds[k])
		if err != nil {
			return kind, err
		}
		got := outcome{
			App: resp.App, Cores: resp.Cores, Machine: resp.Machine,
			Runtime: resp.RuntimeSeconds, Compute: resp.ComputeSeconds, Comm: resp.CommSeconds,
			Mem: resp.MemSeconds, FP: resp.FPSeconds, Intervals: resp.Intervals,
		}
		if err := sameBits(s.ref[k], got); err != nil {
			return kind, fmt.Errorf("predict %s differs from Engine.Predict: %w", s.keys[k], err)
		}
	case "get":
		resp, err := s.cl.GetSignature(ctx, s.keys[k])
		if err != nil {
			return kind, err
		}
		if resp.Hash != s.hashes[k] {
			return kind, fmt.Errorf("get %s: hash %s, put stored %s", s.keys[k], resp.Hash, s.hashes[k])
		}
		if err := sameBits(s.sigs[k], resp.Signature); err != nil {
			return kind, fmt.Errorf("get %s differs from the signature put: %w", s.keys[k], err)
		}
	case "put":
		resp, err := s.cl.PutSignature(ctx, s.keys[k], s.sigs[k])
		if err != nil {
			return kind, err
		}
		if resp.Hash != s.hashes[k] {
			return kind, fmt.Errorf("put %s: hash %s, seeding stored %s", s.keys[k], resp.Hash, s.hashes[k])
		}
	}
	return kind, nil
}
