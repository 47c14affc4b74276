package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", L("status", "ok"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	g := r.Gauge("in_flight", "active jobs")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
	if v, ok := r.Value("jobs_total", L("status", "ok")); !ok || v != 3 {
		t.Errorf("Value(jobs_total) = %v,%v", v, ok)
	}
	if _, ok := r.Value("jobs_total", L("status", "missing")); ok {
		t.Error("Value found unregistered series")
	}
	// Re-resolving the same series shares state.
	r.Counter("jobs_total", "jobs", L("status", "ok")).Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("shared counter = %v, want 4", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 7.0
	g := r.GaugeFunc("queue_depth", "broker depth", func() float64 { return depth })
	if got := g.Value(); got != 7 {
		t.Errorf("gaugefunc = %v", got)
	}
	depth = 9
	if v, ok := r.Value("queue_depth"); !ok || v != 9 {
		t.Errorf("Value(queue_depth) = %v,%v, want 9", v, ok)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "queue_depth 9") {
		t.Errorf("exposition missing live gaugefunc value:\n%s", buf.String())
	}
}

// TestHistogramBucketEdges pins the one bucket layout: power-of-two
// multiples of 64 µs, a value landing under the first edge strictly
// above it (an edge is exclusive at the recording tick, 1 µs).
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency")
	for _, v := range []float64{0, 0.000063, 0.000064, 0.5, 1.048575, 1.048576, 1.5} {
		h.Observe(v)
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="6.4e-05"} 2`,
		`lat_bucket{le="0.000128"} 3`,
		`lat_bucket{le="0.524288"} 4`,
		`lat_bucket{le="1.048576"} 5`,
		`lat_bucket{le="2.097152"} 7`,
		`lat_bucket{le="+Inf"} 7`,
		`lat_count 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="4.194304"`) {
		t.Errorf("edge above the highest populated one exposed:\n%s", out)
	}
	if n, sum := h.Totals(); n != 7 || math.Abs(sum-4.097278) > 1e-9 {
		t.Errorf("Totals = %d,%v", n, sum)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("rai_requests_total", "requests served", L("op", "get")).Add(3)
	r.Counter("rai_requests_total", "requests served", L("op", "put")).Inc()
	r.Gauge("rai_depth", "queue depth", L("topic", "rai"), L("channel", "tasks")).Set(2)
	h := r.Histogram("rai_seconds", "latency")
	h.Observe(0.00006103515625) // 2^-14 s
	h.Observe(0.000244140625)   // 2^-12 s
	h.Observe(0.000244140625)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rai_depth queue depth
# TYPE rai_depth gauge
rai_depth{channel="tasks",topic="rai"} 2
# HELP rai_requests_total requests served
# TYPE rai_requests_total counter
rai_requests_total{op="get"} 3
rai_requests_total{op="put"} 1
# HELP rai_seconds latency
# TYPE rai_seconds histogram
rai_seconds_bucket{le="6.4e-05"} 1
rai_seconds_bucket{le="0.000128"} 1
rai_seconds_bucket{le="0.000256"} 3
rai_seconds_bucket{le="+Inf"} 3
rai_seconds_sum 0.00054931640625
rai_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", L("op", "x"), L("tier", `quoted"v`)).Add(12)
	r.Gauge("b", "plain gauge").Set(-2.5)
	r.Histogram("h", "").Observe(0.5)
	var buf strings.Builder
	r.WritePrometheus(&buf)
	snap, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := snap.Value("a_total", L("op", "x"), L("tier", `quoted"v`)); !ok || v != 12 {
		t.Errorf("a_total = %v,%v", v, ok)
	}
	if v, ok := snap.Value("b"); !ok || v != -2.5 {
		t.Errorf("b = %v,%v", v, ok)
	}
	if v, ok := snap.Value("h_bucket", L("le", "+Inf")); !ok || v != 1 {
		t.Errorf("h_bucket{+Inf} = %v,%v", v, ok)
	}
	if got := snap.Type("b"); got != "gauge" {
		t.Errorf("Type(b) = %q", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.GaugeFunc("z", "", func() float64 { return 1 })
	r.Histogram("w", "").Observe(1)
	if _, ok := r.Value("x"); ok {
		t.Error("nil registry returned a value")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	var c *Counter
	var g *Gauge
	var h *HDRHistogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments returned nonzero")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("c_total", "", L("w", string(rune('a'+i%2))))
			g := r.Gauge("g", "")
			h := r.Histogram("h", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				if j%100 == 0 {
					var buf strings.Builder
					r.WritePrometheus(&buf)
					r.Value("c_total", L("w", "a"))
				}
			}
		}(i)
	}
	wg.Wait()
	a, _ := r.Value("c_total", L("w", "a"))
	b, _ := r.Value("c_total", L("w", "b"))
	if a+b != 8000 {
		t.Errorf("counters lost updates: %v + %v != 8000", a, b)
	}
	if g, _ := r.Value("g"); g != 8000 {
		t.Errorf("gauge = %v, want 8000", g)
	}
	if n, _ := r.Value("h"); n != 8000 {
		t.Errorf("histogram count = %v, want 8000", n)
	}
}
