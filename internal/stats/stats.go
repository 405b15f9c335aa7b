// Package stats provides the small statistical toolkit shared by the
// experiment harness and the benchmarks: a sample of observations with
// the percentile summaries the paper's figures use.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns an empty sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{values: make([]float64, 0, n)} }

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddDuration appends a duration observation in milliseconds, the unit the
// paper's latency figures use.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

func (s *Sample) sortValues() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.sortValues()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Min returns the smallest observation, or NaN on an empty sample.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation, or NaN on an empty sample.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Mean returns the arithmetic mean, or NaN on an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Quartiles returns the 25th, 50th and 75th percentiles, the three series
// the paper's bar charts (figures 7 and 8) report.
func (s *Sample) Quartiles() (p25, p50, p75 float64) {
	return s.Percentile(25), s.Percentile(50), s.Percentile(75)
}

// CDFAt returns the fraction of samples <= v.
func (s *Sample) CDFAt(v float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.sortValues()
	idx := sort.SearchFloat64s(s.values, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(s.values))
}
