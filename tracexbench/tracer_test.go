package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarySelfTimes(t *testing.T) {
	msd := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{layer: rootLayer, call: "op", parent: -1, start: msd(0), end: msd(100)},
		// Two parallel children overlapping in 30..40: together they cover
		// 10..60 of the root.
		{layer: "pebil", call: "collect", parent: 0, start: msd(10), end: msd(40)},
		{layer: "machine", call: "profile", parent: 0, start: msd(30), end: msd(60)},
		// A sequential child with a grandchild.
		{layer: "engine", call: "predict", parent: 0, start: msd(70), end: msd(90)},
		{layer: "psins", call: "replay", parent: 3, start: msd(75), end: msd(85)},
		// An unclosed span is ignored.
		{layer: "extrap", call: "fit", parent: 0, start: msd(95), end: -1},
	}
	s := summarize(spans)
	if s.Ops != 1 {
		t.Fatalf("Ops = %d, want 1", s.Ops)
	}
	want := map[string]float64{rootLayer: 30, "pebil": 30, "machine": 30, "engine": 10, "psins": 10}
	for layer, w := range want {
		if got := s.SelfMs[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", layer, got, w)
		}
	}
	if _, ok := s.SelfMs["extrap"]; ok {
		t.Error("an unclosed span was counted")
	}
	if c := s.Calls["psins.replay"]; c == nil || c.N() != 1 || c.Median() != 10 {
		t.Errorf("psins.replay calls = %+v, want one 10 ms call", c)
	}
	if _, ok := s.Calls[rootLayer+".op"]; ok {
		t.Error("root spans should not count as layer calls")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("pebil", "collect", -1)
	tr.End(id)
	ran := false
	if err := tr.Do("psins", "replay", id, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Do on a nil tracer: ran %t, err %v", ran, err)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(rootLayer, "op", -1)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			tr.Do("pebil", "collect", root, func() error { time.Sleep(time.Millisecond); return nil })
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	tr.End(root)
	if c := tr.Summary().Calls["pebil.collect"]; c == nil || c.N() != 4 {
		t.Fatalf("pebil.collect calls = %+v, want 4", c)
	}
}
