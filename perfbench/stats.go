package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the reporting rule for percentiles: a percentile is printed
// only when at least this many samples lie strictly beyond it, so a tail
// figure never rests on a handful of observations.
const minBeyond = 10

// samples is one timing series (or any other per-operation quantity).
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// rank returns the 1-based nearest-rank position of quantile q among n
// samples: the smallest r with r >= q*n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// reportable reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func reportable(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// quantile returns the nearest-rank q-quantile. It fails when the sample
// does not support the percentile under the minBeyond rule; the median of a
// non-empty sample is always supported.
func (s *samples) quantile(q float64) (float64, error) {
	n := len(s.xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples for p%g", q*100)
	}
	if q > 0.5 && !reportable(n, q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank(n, q), n)
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs[rank(n, q)-1], nil
}

// windowQuantile is the robust form of a percentile used for every locate
// latency: the median, over time windows (or batches), of each window's
// q-quantile. A burst of host noise moves the windows it covers, not the
// median window. Every window must support the percentile by itself.
func windowQuantile(ws []samples, q float64) (float64, error) {
	if len(ws) == 0 {
		return 0, fmt.Errorf("no windows for p%g", q*100)
	}
	per := make([]float64, len(ws))
	for i := range ws {
		v, err := ws[i].quantile(q)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", i+1, len(ws), err)
		}
		per[i] = v
	}
	return median(per), nil
}

// median of a plain slice (used for repeated whole-run measurements such
// as set-up time, where the rule above does not apply).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
