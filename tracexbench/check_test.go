package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tracex"
	"tracex/internal/trace"
)

// smallSignature collects a cheap real signature for the checker tests.
func smallSignature(t *testing.T) *tracex.Signature {
	t.Helper()
	app, err := tracex.LoadApp(serveApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tracex.LoadMachine(serveMachine)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := tracex.CollectSignature(app, serveBaseCores, m, tracex.CollectOptions{SampleRefs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// clone deep-copies through JSON, as a signature crosses the wire.
func clone[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameBitsAcceptsIdenticalSignature(t *testing.T) {
	sig := smallSignature(t)
	if err := sameBits(sig, clone(t, sig)); err != nil {
		t.Fatalf("a JSON round trip of a signature differs: %v", err)
	}
}

func TestSameBitsRejectsDroppedSignatureField(t *testing.T) {
	sig := smallSignature(t)
	for name, mutate := range map[string]func(s *tracex.Signature){
		"trace dropped":      func(s *tracex.Signature) { s.Traces = s.Traces[:len(s.Traces)-1] },
		"block dropped":      func(s *tracex.Signature) { s.Traces[0].Blocks = s.Traces[0].Blocks[1:] },
		"hit rates dropped":  func(s *tracex.Signature) { s.Traces[0].Blocks[0].FV.HitRates = nil },
		"source line zeroed": func(s *tracex.Signature) { s.Traces[0].Blocks[0].Line = 0 },
		"uncertainty added": func(s *tracex.Signature) {
			s.Uncertainty = &trace.SignatureUncertainty{Dof: 1}
		},
	} {
		got := clone(t, sig)
		mutate(got)
		if err := sameBits(sig, got); err == nil {
			t.Errorf("%s: checker accepted the altered signature", name)
		}
	}
}

func TestSameBitsRejectsPerturbedRuntime(t *testing.T) {
	want := outcome{App: "uh3d", Cores: 8192, Machine: "bluewaters", Runtime: 192.94922478000714,
		Intervals: []tracex.Interval{{Level: 0.9, Lo: 180, Hi: 205}}}
	got := clone(t, want)
	if err := sameBits(want, got); err != nil {
		t.Fatalf("identical outcomes differ: %v", err)
	}
	got.Runtime = math.Nextafter(got.Runtime, math.Inf(1))
	err := sameBits(want, got)
	if err == nil || !strings.Contains(err.Error(), "Runtime") {
		t.Fatalf("a runtime one ULP off: err = %v, want a Runtime difference", err)
	}
	got = clone(t, want)
	got.Intervals[0].Hi = math.Nextafter(got.Intervals[0].Hi, 0)
	if err := sameBits(want, got); err == nil {
		t.Fatal("checker accepted a perturbed interval bound")
	}
}

func TestWithinRel(t *testing.T) {
	x := 192.94922478000714
	if !withinRel(x, math.Nextafter(x, 0), intervalRelTol) {
		t.Error("a one-ULP difference should be within the interval tolerance")
	}
	if withinRel(x, x*(1+1e-9), intervalRelTol) {
		t.Error("a 1e-9 relative difference should exceed the interval tolerance")
	}
}

func TestTableIGate(t *testing.T) {
	if err := checkErrPct("x", errPct(109, 100)); err != nil {
		t.Errorf("9%% error failed the gate: %v", err)
	}
	if err := checkErrPct("x", errPct(89, 100)); err == nil {
		t.Error("11% error passed the gate")
	}
}
