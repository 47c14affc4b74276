package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sortedQuantile is the oracle: the exact q-quantile of a sample slice
// using the same ceil-rank rule the histogram implements.
func sortedQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHDRQuantileAccuracy drives log-uniform samples spanning six
// orders of magnitude through the histogram and checks every reported
// quantile against the sorted-slice oracle within the structural error
// bound (1/hdrSubHalf relative, plus one tick of quantization).
func TestHDRQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	h := NewHDRHistogram()
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// 10 µs .. 100 s, log-uniform.
		v := math.Pow(10, -5+7*rng.Float64())
		h.Observe(v)
		samples = append(samples, v)
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(samples))
	}
	relErr := 1.0/float64(hdrSubHalf) + 1e-6
	for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		got := snap.Quantile(q)
		want := sortedQuantile(samples, q)
		if diff := math.Abs(got - want); diff > want*relErr+hdrTick {
			t.Errorf("q=%v: got %v want %v (err %v, bound %v)", q, got, want, diff, want*relErr)
		}
	}
	wantMean := 0.0
	for _, v := range samples {
		wantMean += v
	}
	wantMean /= float64(len(samples))
	if m := snap.Mean(); math.Abs(m-wantMean) > 1e-9*wantMean {
		t.Errorf("mean = %v, want %v", m, wantMean)
	}
	if snap.Max != sortedQuantile(samples, 1) {
		t.Errorf("max = %v, want %v", snap.Max, sortedQuantile(samples, 1))
	}
}

// TestHDRConcurrentObserve hammers one histogram from many goroutines;
// under -race this doubles as the data-race check, and the final count
// and sum must account for every sample exactly.
func TestHDRConcurrentObserve(t *testing.T) {
	h := NewHDRHistogram()
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Float64())
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	var slotTotal uint64
	for _, c := range snap.Counts {
		slotTotal += c
	}
	if slotTotal != snap.Count {
		t.Fatalf("slot total %d != count %d", slotTotal, snap.Count)
	}
	if snap.Min < 0 || snap.Max > 1 {
		t.Fatalf("min/max out of range: %v/%v", snap.Min, snap.Max)
	}
}

// TestHDRPrometheusExposition checks the text rendering: cumulative le
// buckets, a +Inf bucket equal to the total count, _sum/_count lines,
// and that the document round-trips through the telemetry text parser.
func TestHDRPrometheusExposition(t *testing.T) {
	h := NewHDRHistogram()
	for _, v := range []float64{0.0001, 0.005, 0.005, 0.25, 30} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := h.Snapshot().write(&b, "rai_bench_latency_seconds", `phase="total"`); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	snap, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if v, ok := snap.Value("rai_bench_latency_seconds_count", L("phase", "total")); !ok || v != 5 {
		t.Fatalf("_count = %v,%v want 5\n%s", v, ok, text)
	}
	inf, ok := snap.Value("rai_bench_latency_seconds_bucket", L("phase", "total"), L("le", "+Inf"))
	if !ok || inf != 5 {
		t.Fatalf("+Inf bucket = %v,%v want 5\n%s", inf, ok, text)
	}
	// Buckets are cumulative: values never decrease as le grows.
	var lastLE, lastV float64 = -1, -1
	for _, s := range snap.Samples {
		if s.Name != "rai_bench_latency_seconds_bucket" || s.Labels["le"] == "+Inf" {
			continue
		}
		le, err := parseValue(s.Labels["le"])
		if err != nil {
			t.Fatalf("bad le %q", s.Labels["le"])
		}
		if le < lastLE {
			t.Fatalf("le bounds not ascending in exposition:\n%s", text)
		}
		if s.Value < lastV {
			t.Fatalf("bucket counts not cumulative at le=%v:\n%s", le, text)
		}
		lastLE, lastV = le, s.Value
	}
	if lastV > inf {
		t.Fatalf("finite bucket exceeds +Inf bucket:\n%s", text)
	}
	if v, ok := snap.Value("rai_bench_latency_seconds_sum", L("phase", "total")); !ok || math.Abs(v-30.2601) > 1e-9 {
		t.Fatalf("_sum = %v,%v\n%s", v, ok, text)
	}
}
