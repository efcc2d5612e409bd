package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"tracex"
)

// predict-warm: a warm prediction at a scale that was never traced. Set-up
// collects uh3d at {1024, 2048, 4096} on bluewaters, extrapolates to 8192
// with posterior model averaging (intervals) and builds the profile. Each
// operation is one Engine.Predict without intervals followed by one with
// them, on that signature: replay and program build (psins, mpi) dominate
// and nothing is collected, the mirror of study-cold.
var predictReq = struct {
	app, machine string
	inputs       []int
	target       int
}{"uh3d", "bluewaters", []int{1024, 2048, 4096}, 8192}

type predictState struct {
	eng  *tracex.Engine
	app  *tracex.App
	sig  *tracex.Signature
	prof *tracex.Profile
	// extPoint and truthPoint are the point predictions from the
	// extrapolated and from a collected signature at the target.
	extPoint, truthPoint float64
	// first holds the run's first point and interval outcomes; every later
	// operation must reproduce them bit for bit.
	first *[2]outcome
	t     tally
}

func setupPredict(ctx context.Context, e env) (state, error) {
	app, err := tracex.LoadApp(predictReq.app)
	if err != nil {
		return nil, err
	}
	m, err := tracex.LoadMachine(predictReq.machine)
	if err != nil {
		return nil, err
	}
	s := &predictState{eng: tracex.NewEngine(tracex.WithParallelism(e.par)), app: app}
	ok := false
	defer func() {
		if !ok {
			s.eng.Close()
		}
	}()
	inputs, err := s.eng.CollectInputs(ctx, app, predictReq.inputs, m, tracex.CollectOptions{})
	if err != nil {
		return nil, err
	}
	ext, err := s.eng.Extrapolate(ctx, inputs, predictReq.target, tracex.ExtrapOptions{Intervals: true})
	if err != nil {
		return nil, err
	}
	if ext.Signature.Uncertainty == nil {
		return nil, fmt.Errorf("interval extrapolation to %d cores carries no uncertainty", predictReq.target)
	}
	s.sig = ext.Signature
	if s.prof, err = s.eng.Profile(ctx, m); err != nil {
		return nil, err
	}
	// The fidelity check: the same prediction from a signature collected
	// at the target.
	truth, err := s.eng.CollectSignature(ctx, app, predictReq.target, m, tracex.CollectOptions{})
	if err != nil {
		return nil, err
	}
	pt, err := s.eng.Predict(ctx, tracex.PredictRequest{Signature: truth, App: app, Profile: s.prof})
	if err != nil {
		return nil, err
	}
	pe, err := s.eng.Predict(ctx, tracex.PredictRequest{Signature: s.sig, App: app, Profile: s.prof})
	if err != nil {
		return nil, err
	}
	s.truthPoint, s.extPoint = pt.Runtime, pe.Runtime
	ok = true
	return s, nil
}

// Agree compares with an earlier set-up. The interval extrapolation sums
// posterior weights in map order, so two set-ups may differ in the last
// bits of the extrapolated signature: the comparison uses intervalRelTol.
func (s *predictState) Agree(prev state) error {
	p := prev.(*predictState)
	if p.truthPoint != s.truthPoint {
		return fmt.Errorf("collected prediction %v vs %v", p.truthPoint, s.truthPoint)
	}
	if !withinRel(p.extPoint, s.extPoint, intervalRelTol) {
		return fmt.Errorf("extrapolated prediction %v vs %v, beyond relative %g", p.extPoint, s.extPoint, intervalRelTol)
	}
	return nil
}

func (s *predictState) ErrPct() float64 { return errPct(s.extPoint, s.truthPoint) }

func (s *predictState) Counters() counters {
	c := s.t.get()
	c.addEngine(s.eng)
	return c
}

func (s *predictState) Close() error { return s.eng.Close() }

func (s *predictState) Op(ctx context.Context, _ int, _ *rand.Rand, tr *Tracer, root int) (string, error) {
	const kind = "predict-pair"
	var point outcome
	if tr == nil {
		p, err := s.eng.Predict(ctx, tracex.PredictRequest{Signature: s.sig, App: s.app, Profile: s.prof})
		if err != nil {
			return kind, err
		}
		point = fromPrediction(p)
	} else {
		var err error
		if point, err = tracedPredict(ctx, tr, root, &s.t, s.eng.Registry(), s.app, s.sig, s.prof); err != nil {
			return kind, err
		}
	}
	var iv *tracex.Prediction
	err := tr.Do("engine", "predict_intervals", root, func() (err error) {
		iv, err = s.eng.Predict(ctx, tracex.PredictRequest{Signature: s.sig, App: s.app, Profile: s.prof, Intervals: true})
		return err
	})
	if err != nil {
		return kind, err
	}
	got := [2]outcome{point, fromPrediction(iv)}
	if len(got[1].Intervals) == 0 {
		return kind, fmt.Errorf("interval prediction returned no intervals")
	}
	if got[1].Runtime != point.Runtime || point.Runtime != s.extPoint {
		return kind, fmt.Errorf("point runtime %v, interval prediction's runtime %v, set-up's %v", point.Runtime, got[1].Runtime, s.extPoint)
	}
	if s.first == nil {
		s.first = &got
		return kind, nil
	}
	if err := sameBits(*s.first, got); err != nil {
		return kind, fmt.Errorf("response differs from the run's first: %w", err)
	}
	return kind, nil
}
