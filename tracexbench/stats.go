package main

import (
	"math"
	"sort"
	"time"
)

// Sample is a set of timings in milliseconds. Percentiles use linear
// interpolation between closest ranks (the same rule as Python's
// statistics.quantiles with method="inclusive"), and every summary carries
// its sample count so a reader can judge how many observations lie beyond a
// reported percentile.
type Sample struct {
	ms     []float64
	sorted bool
}

// Add records one duration.
func (s *Sample) Add(d time.Duration) { s.AddMs(float64(d) / float64(time.Millisecond)) }

// AddMs records one value in milliseconds.
func (s *Sample) AddMs(v float64) {
	s.ms = append(s.ms, v)
	s.sorted = false
}

// Merge appends every value of o.
func (s *Sample) Merge(o *Sample) {
	s.ms = append(s.ms, o.ms...)
	s.sorted = false
}

// N returns the number of values.
func (s *Sample) N() int { return len(s.ms) }

// Sum returns the total of all values.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, v := range s.ms {
		t += v
	}
	return t
}

// Median returns the 50th percentile, NaN when empty.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Percentile returns the p-th percentile (0 <= p <= 100), NaN when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.ms) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.ms)
		s.sorted = true
	}
	return percentileSorted(s.ms, p)
}

// Beyond returns how many values lie strictly above the p-th percentile:
// the guide for whether a tail percentile rests on enough observations.
func (s *Sample) Beyond(p float64) int {
	q := s.Percentile(p)
	n := 0
	for _, v := range s.ms {
		if v > q {
			n++
		}
	}
	return n
}

// percentileSorted interpolates the p-th percentile of ascending xs.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// medianOf returns the median of xs without modifying it, NaN when empty.
func medianOf(xs []float64) float64 {
	var s Sample
	for _, x := range xs {
		s.AddMs(x)
	}
	return s.Median()
}
