package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest value with at least p of the sample at or below it.
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle values of an even-sized sample, so
// that the median of two rounds is their mean.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread is (max-min)/median: how far apart repeated rounds of one
// commit landed, as a share of the value reported.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// interval is a half-open span of time in seconds since the round's epoch.
type interval struct{ start, end float64 }

// unionLength is the time covered by at least one interval: a caller
// that overlaps two requests was busy once, not twice.
func unionLength(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total, cur := 0.0, s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = math.Max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}
