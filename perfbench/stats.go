package main

import (
	"math"
	"sort"
	"time"
)

// base anchors the benchmark's monotonic clock. time.Since on a value
// carrying a monotonic reading costs one runtime clock read, which keeps
// span and latency stamps cheap.
var base = time.Now()

// now returns monotonic nanoseconds since base.
func now() int64 { return int64(time.Since(base)) }

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// It sorts a copy; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
