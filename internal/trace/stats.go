package trace

import (
	"fmt"
	"math"
	"sort"

	"dcsctrl/internal/sim"
)

// Sample accumulates scalar observations (latencies, sizes) and
// reports summary statistics. Observations are kept, so percentiles
// are exact.
type Sample struct {
	vals   []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// AddTime records a sim.Time observation in microseconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Microseconds()) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted observations.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
