package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile's rank
// before that percentile is reported as measured.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and the number of samples ranked strictly beyond it. The rank is
// ceil(p/100 * n), counted from 1; xs is not modified. An empty xs (a
// layer that saw no work) gives 0 and 0.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// tail is percentile with the ten-beyond check: ok reports whether at
// least minBeyond samples lie beyond the returned value.
func tail(xs []float64, p float64) (v float64, ok bool) {
	v, beyond := percentile(xs, p)
	return v, beyond >= minBeyond
}

// median is the middle of xs, averaging the two middle values of an even
// count. An empty xs gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
