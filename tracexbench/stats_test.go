package main

import (
	"math"
	"testing"
	"time"
)

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for _, v := range []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6} {
		s.AddMs(v)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d, want 10", s.N())
	}
	// Linear interpolation between closest ranks, as Python's
	// statistics.quantiles(method="inclusive").
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {25, 3.25}, {75, 7.75}, {90, 9.1}, {100, 10},
	} {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.Median(); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := s.Beyond(90); got != 1 {
		t.Errorf("values beyond p90 = %d, want 1", got)
	}
	if got := s.Sum(); got != 55 {
		t.Errorf("sum = %v, want 55", got)
	}
}

func TestSampleEdgeCases(t *testing.T) {
	var empty Sample
	if !math.IsNaN(empty.Median()) {
		t.Errorf("median of an empty sample = %v, want NaN", empty.Median())
	}
	var one Sample
	one.Add(1500 * time.Microsecond)
	if got := one.Percentile(99); got != 1.5 {
		t.Errorf("p99 of one 1.5 ms value = %v", got)
	}
	var a, b Sample
	a.AddMs(3)
	b.AddMs(1)
	b.AddMs(2)
	a.Merge(&b)
	if a.N() != 3 || a.Median() != 2 {
		t.Errorf("merged sample: N %d median %v, want 3 and 2", a.N(), a.Median())
	}
	if got := medianOf([]float64{4, 1, 3}); got != 3 {
		t.Errorf("medianOf = %v, want 3", got)
	}
}
