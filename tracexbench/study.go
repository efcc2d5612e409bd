package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"tracex"
)

// study-cold: the paper's Table I pipeline from nothing. Every operation
// builds a fresh Engine with no memory or disk tier and runs Engine.Study
// on specfem3d, inputs {96, 384, 1536} extrapolated to 6144 on bluewaters
// with the default fixed sampling and the truth collection at 6144.
// Collection (pebil over addrgen and cache) and the profile sweep (machine)
// do almost all the work; replay does little.
var studyReq = struct {
	app, machine string
	inputs       []int
	target       int
}{"specfem3d", "bluewaters", []int{96, 384, 1536}, 6144}

type studyState struct {
	par     int
	app     *tracex.App
	machine tracex.MachineConfig
	// ext and coll are the reference predictions at the target: from the
	// extrapolated and from the collected signature, built independently
	// of Engine.Study at set-up.
	ext, coll outcome
	t         tally
}

// setupStudy builds the reference outputs the operations are checked
// against without Engine.Study: Engine.CollectInputs on a fresh engine, the
// package-level tracex.Extrapolate, and Engine.Predict for both signatures.
func setupStudy(ctx context.Context, e env) (state, error) {
	app, err := tracex.LoadApp(studyReq.app)
	if err != nil {
		return nil, err
	}
	m, err := tracex.LoadMachine(studyReq.machine)
	if err != nil {
		return nil, err
	}
	s := &studyState{par: e.par, app: app, machine: m}
	eng := tracex.NewEngine(tracex.WithParallelism(e.par))
	defer eng.Close()
	sigs, err := eng.CollectInputs(ctx, app, append(append([]int(nil), studyReq.inputs...), studyReq.target), m, tracex.CollectOptions{})
	if err != nil {
		return nil, err
	}
	inputs, truth := sigs[:len(studyReq.inputs)], sigs[len(studyReq.inputs)]
	ext, err := tracex.Extrapolate(inputs, studyReq.target, tracex.ExtrapOptions{})
	if err != nil {
		return nil, err
	}
	prof, err := eng.Profile(ctx, m)
	if err != nil {
		return nil, err
	}
	pe, err := eng.Predict(ctx, tracex.PredictRequest{Signature: ext.Signature, App: app, Profile: prof})
	if err != nil {
		return nil, err
	}
	pc, err := eng.Predict(ctx, tracex.PredictRequest{Signature: truth, App: app, Profile: prof})
	if err != nil {
		return nil, err
	}
	s.ext, s.coll = fromPrediction(pe), fromPrediction(pc)
	return s, nil
}

func (s *studyState) Agree(prev state) error {
	p := prev.(*studyState)
	return errors.Join(sameBits(p.ext, s.ext), sameBits(p.coll, s.coll))
}

func (s *studyState) ErrPct() float64 { return errPct(s.ext.Runtime, s.coll.Runtime) }

func (s *studyState) Counters() counters { return s.t.get() }

func (s *studyState) Close() error { return nil }

func (s *studyState) Op(ctx context.Context, _ int, _ *rand.Rand, tr *Tracer, root int) (string, error) {
	eng := tracex.NewEngine(tracex.WithParallelism(s.par))
	defer eng.Close()
	var ext, coll outcome
	var err error
	if tr == nil {
		ext, coll, err = s.study(ctx, eng)
	} else {
		ext, coll, err = s.tracedStudy(ctx, eng, tr, root)
	}
	s.t.add(func(c *counters) { c.addEngine(eng) })
	if err != nil {
		return "study", err
	}
	if err := sameBits(s.ext, ext); err != nil {
		return "study", fmt.Errorf("extrapolated prediction differs from the reference: %w", err)
	}
	if err := sameBits(s.coll, coll); err != nil {
		return "study", fmt.Errorf("collected prediction differs from the reference: %w", err)
	}
	return "study", nil
}

// study runs Engine.Study and returns the target's two predictions.
func (s *studyState) study(ctx context.Context, eng *tracex.Engine) (ext, coll outcome, err error) {
	res, err := eng.Study(ctx, tracex.StudyRequest{
		App: s.app, Machine: s.machine,
		InputCounts: studyReq.inputs, TargetCores: studyReq.target,
		WithTruth: true,
	})
	if err != nil {
		return outcome{}, outcome{}, err
	}
	t := res.Target(studyReq.target)
	if t == nil || t.Extrapolated == nil || t.Collected == nil {
		return outcome{}, outcome{}, fmt.Errorf("study has no result at %d cores", studyReq.target)
	}
	return fromPrediction(t.Extrapolated), fromPrediction(t.Collected), nil
}

// tracedStudy runs the same study as Engine.Study through the public layer
// calls Study makes, in the same two phases: the profile sweep and every
// collection on par workers, then the fit and both predictions.
func (s *studyState) tracedStudy(ctx context.Context, eng *tracex.Engine, tr *Tracer, root int) (ext, coll outcome, err error) {
	counts := append(append([]int(nil), studyReq.inputs...), studyReq.target)
	sigs := make([]*tracex.Signature, len(counts))
	var prof *tracex.Profile
	tasks := make(chan int, len(counts)+1)
	for i := 0; i <= len(counts); i++ {
		tasks <- i
	}
	close(tasks)
	errs := make([]error, len(counts)+1)
	var wg sync.WaitGroup
	for w := 0; w < s.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if i == len(counts) {
					errs[i] = tr.Do("machine", "profile", root, func() (err error) {
						prof, err = eng.Profile(ctx, s.machine)
						return err
					})
					continue
				}
				errs[i] = tr.Do("pebil", "collect", root, func() (err error) {
					sigs[i], err = eng.CollectSignature(ctx, s.app, counts[i], s.machine, tracex.CollectOptions{})
					return err
				})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return outcome{}, outcome{}, err
	}
	var res *tracex.ExtrapResult
	err = tr.Do("extrap", "fit", root, func() (err error) {
		res, err = eng.Extrapolate(ctx, sigs[:len(studyReq.inputs)], studyReq.target, tracex.ExtrapOptions{})
		return err
	})
	if err != nil {
		return outcome{}, outcome{}, err
	}
	if ext, err = tracedPredict(ctx, tr, root, &s.t, eng.Registry(), s.app, res.Signature, prof); err != nil {
		return outcome{}, outcome{}, err
	}
	coll, err = tracedPredict(ctx, tr, root, &s.t, eng.Registry(), s.app, sigs[len(studyReq.inputs)], prof)
	return ext, coll, err
}
