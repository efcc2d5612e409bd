package extrap

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"tracex/internal/trace"
)

func TestExtrapolateIntervalsOffLeavesResultUnchanged(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048), synthSignature(4096)}
	res, err := Extrapolate(context.Background(), inputs, 8192, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Signature.Uncertainty != nil {
		t.Errorf("intervals off must not attach uncertainty")
	}
	for _, f := range res.Fits {
		if f.Weights != nil || f.Mean != 0 || f.Var != 0 {
			t.Errorf("intervals off must leave averaged fields zero: %+v", f)
		}
	}
}

func TestExtrapolateIntervalsAttachUncertainty(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048), synthSignature(4096)}
	res, err := Extrapolate(context.Background(), inputs, 8192, Options{Intervals: true})
	if err != nil {
		t.Fatal(err)
	}
	uc := res.Signature.Uncertainty
	if uc == nil {
		t.Fatal("intervals on must attach Signature.Uncertainty")
	}
	if uc.Dof < 1 {
		t.Errorf("dof %d must be >= 1", uc.Dof)
	}
	if len(uc.Blocks) != 1 || uc.Blocks[0].ID != 7 {
		t.Fatalf("uncertainty blocks %+v, want the single block 7", uc.Blocks)
	}
	vars := uc.VarsFor(7)
	if len(vars) != len(trace.ElementNames(3)) {
		t.Fatalf("got %d element variances, want %d", len(vars), len(trace.ElementNames(3)))
	}
	anyPositive := false
	for e, v := range vars {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("element %d variance %g invalid", e, v)
		}
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("no element carries positive predictive variance")
	}
	if uc.VarsFor(99) != nil {
		t.Error("VarsFor(unknown) must be nil")
	}

	// Averaged fits carry normalized weights and stay near the point path.
	point, err := Extrapolate(context.Background(), inputs, 8192, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := point.FitsFor(7)
	for _, f := range res.FitsFor(7) {
		sum := 0.0
		for _, w := range f.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("element %s weights sum to %g", f.Element, sum)
		}
		// On exact canonical series the posterior concentrates and the
		// mixture mean tracks the winning form's point prediction.
		p := pf[f.Element].Extrapolated
		if p != 0 && math.Abs(f.Extrapolated-p)/math.Abs(p) > 0.05 {
			t.Errorf("element %s averaged %g far from point %g", f.Element, f.Extrapolated, p)
		}
	}
}

// Posterior weights are floating-point sums over the candidate forms, so
// an iteration order that varies between calls shows up in the last ULPs.
// Repeated interval extrapolations of one input set must be bit-identical.
func TestExtrapolateIntervalsDeterministic(t *testing.T) {
	var inputs []*trace.Signature
	for i, p := range []int{512, 1024, 2048, 4096} {
		sig := synthSignature(p)
		fv := &sig.Traces[0].Blocks[0].FV
		wobble := 1 + 0.01*float64(i%2*2-1) // breaks every form's exact fit
		fv.MemOps *= wobble
		fv.Loads *= wobble
		fv.Stores *= wobble
		fv.WorkingSetBytes *= wobble
		inputs = append(inputs, sig)
	}
	var first []byte
	for i := 0; i < 30; i++ {
		res, err := Extrapolate(context.Background(), inputs, 8192, Options{Intervals: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(struct {
			Sig  *trace.Signature
			Fits []ElementFit
		}{res.Signature, res.Fits})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("extrapolation %d differs from the first:\n%s\nvs\n%s", i, got, first)
		}
	}
}
