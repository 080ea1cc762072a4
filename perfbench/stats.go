package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). It returns NaN for an empty
// sample and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, the median and the third
// quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// tailPercentile returns the highest whole percentile of an n-sample run
// that still has at least minBeyond samples above it: the largest p with
// n*(100-p)/100 >= minBeyond, capped at 99. It returns 0 when
// n < 2*minBeyond, where not even the median has minBeyond samples
// beyond it.
func tailPercentile(n, minBeyond int) int {
	if minBeyond < 1 || n < 2*minBeyond {
		return 0
	}
	p := 100 - int(math.Ceil(100*float64(minBeyond)/float64(n)))
	if p > 99 {
		p = 99
	}
	return p
}

// ratio is a quotient reported together with its base, so that a reader
// can tell 0.5 of 2 from 0.5 of 2 million.
type ratio struct {
	Num, Den float64
}

// Value returns Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%.6g / %.6g)", r.Value(), r.Num, r.Den)
}
