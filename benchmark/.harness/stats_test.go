package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oraclePercentile is the definition, not the implementation: the
// smallest sample value v such that at least p of the sample is <= v.
func oraclePercentile(xs []float64, p float64) float64 {
	best := math.Inf(1)
	for _, v := range xs {
		atOrBelow := 0
		for _, x := range xs {
			if x <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p*float64(len(xs)) && v < best {
			best = v
		}
	}
	return best
}

func TestPercentileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.Float64()*20) / 2 // ties on purpose
		}
		for _, p := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
			if got, want := percentile(xs, p), oraclePercentile(xs, p); got != want {
				t.Fatalf("n=%d p=%v: got %v, oracle says %v", n, p, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianAndSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 30; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		want := s[n/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != want {
			t.Fatalf("n=%d: median %v, want %v", n, got, want)
		}
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want (12-9)/10", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one round = %v, want 0", got)
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want float64
	}{
		{nil, 0},
		{[]interval{{1, 2}}, 1},
		{[]interval{{1, 2}, {3, 5}}, 3},
		{[]interval{{3, 5}, {1, 4}}, 4},          // overlap, out of order
		{[]interval{{1, 10}, {2, 3}, {4, 5}}, 9}, // nested
		{[]interval{{1, 2}, {2, 3}}, 2},          // touching
	}
	for _, c := range cases {
		if got := unionLength(c.ivs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("unionLength(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}
