package telemetry

import (
	"math"
	"net/http"
	"testing"
)

func TestSamplerRateBounds(t *testing.T) {
	all := NewSampler(1)
	none := NewSampler(0)
	for _, id := range []string{"a", "b", "trace-1", "trace-2"} {
		if !all.Keep(id) {
			t.Errorf("rate-1 sampler dropped %q", id)
		}
		if none.Keep(id) {
			t.Errorf("rate-0 sampler kept %q", id)
		}
	}
	if NewSampler(-3).Rate() != 0 || NewSampler(7).Rate() != 1 {
		t.Error("rate not clamped to [0,1]")
	}
}

func TestSamplerDeterministicAndUnbiased(t *testing.T) {
	s1 := NewSampler(0.3)
	s2 := NewSampler(0.3)
	kept := 0
	const n = 10000
	for i := 0; i < n; i++ {
		id := "trace-" + string(rune('a'+i%26)) + "-" + itoa(i)
		if s1.Keep(id) != s2.Keep(id) {
			t.Fatalf("samplers with equal rates disagree on %q", id)
		}
		if s1.Keep(id) {
			kept++
		}
	}
	frac := float64(kept) / n
	// 5σ binomial bound around 0.3.
	if sigma := 5 * math.Sqrt(0.3*0.7/n); math.Abs(frac-0.3) > sigma {
		t.Errorf("kept fraction %.4f deviates from rate 0.3 beyond 5σ (%.4f)", frac, sigma)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestSamplerDecideCounts(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(0.5, WithSamplerMetrics(reg))
	for i := 0; i < 100; i++ {
		s.Decide("t-" + itoa(i))
	}
	sampled, dropped, _ := s.Counts()
	if sampled+dropped != 100 {
		t.Fatalf("sampled %d + dropped %d != 100 decisions", sampled, dropped)
	}
	if sampled == 0 || dropped == 0 {
		t.Fatalf("rate-0.5 made one-sided decisions: sampled %d dropped %d", sampled, dropped)
	}
	if v, _ := reg.Value("rai_trace_sampled_total"); v != float64(sampled) {
		t.Errorf("rai_trace_sampled_total = %v, want %d", v, sampled)
	}
	if v, _ := reg.Value("rai_trace_dropped_total"); v != float64(dropped) {
		t.Errorf("rai_trace_dropped_total = %v, want %d", v, dropped)
	}
}

func TestSamplerNoteOverridesHash(t *testing.T) {
	s := NewSampler(0) // hash says drop everything
	s.Note("forced", DecisionKeep)
	if !s.Keep("forced") {
		t.Error("noted keep decision ignored")
	}
	if s.Decide("forced") != DecisionKeep {
		t.Error("Decide ignored noted decision")
	}
	k := NewSampler(1) // hash says keep everything
	k.Note("suppressed", DecisionDrop)
	if k.Keep("suppressed") {
		t.Error("noted drop decision ignored")
	}
	// Unknown notes are no-ops.
	k.Note("x", DecisionUnknown)
	if !k.Keep("x") {
		t.Error("unknown note changed the verdict")
	}
}

func TestSamplerOverrideEviction(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < samplerOverrides+10; i++ {
		s.Note("t-"+itoa(i), DecisionDrop)
	}
	// The oldest notes were evicted; their traces fall back to the hash.
	if !s.Keep("t-0") {
		t.Error("evicted override still applied")
	}
	if s.Keep("t-" + itoa(samplerOverrides+9)) {
		t.Error("recent override lost")
	}
	if len(s.override) > samplerOverrides {
		t.Errorf("override table grew to %d, cap %d", len(s.override), samplerOverrides)
	}
}

func TestSamplerSpanSinkFilters(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(1, WithSamplerMetrics(reg))
	s.Note("dropme", DecisionDrop)
	var got []SpanData
	sink := s.SpanSink(func(d SpanData) { got = append(got, d) })
	sink(SpanData{TraceID: "keepme", SpanID: "a"})
	sink(SpanData{TraceID: "dropme", SpanID: "b"})
	sink(SpanData{TraceID: "keepme", SpanID: "c"})
	if len(got) != 2 {
		t.Fatalf("sink passed %d spans, want 2", len(got))
	}
	if _, _, spansDropped := s.Counts(); spansDropped != 1 {
		t.Errorf("spansDropped = %d, want 1", spansDropped)
	}
	if v, _ := reg.Value("rai_trace_spans_dropped_total"); v != 1 {
		t.Errorf("rai_trace_spans_dropped_total = %v, want 1", v)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	if !s.Keep("x") || s.Decide("x") != DecisionKeep || s.Rate() != 1 {
		t.Error("nil sampler must keep everything")
	}
	s.Note("x", DecisionDrop)
	next := func(SpanData) {}
	if s.SpanSink(next) == nil {
		t.Error("nil sampler SpanSink must return next unchanged")
	}
}

func TestDecisionWireRoundTrip(t *testing.T) {
	for _, d := range []Decision{DecisionUnknown, DecisionKeep, DecisionDrop} {
		if ParseDecision(d.String()) != d {
			t.Errorf("decision %v does not round-trip through %q", d, d.String())
		}
	}
	if ParseDecision("garbage") != DecisionUnknown {
		t.Error("unrecognized wire form must parse as unknown")
	}
}

func TestSamplingHeaderPropagation(t *testing.T) {
	ctx := ContextWithSpanContext(t.Context(), SpanContext{TraceID: "tr", SpanID: "sp"})
	ctx = ContextWithSampling(ctx, DecisionDrop)
	h := http.Header{}
	InjectHTTP(ctx, h)
	if h.Get(HeaderSampled) != "0" {
		t.Fatalf("X-RAI-Sampled = %q, want 0", h.Get(HeaderSampled))
	}
	sc, _ := ExtractHTTP(h)
	if sc.Sampled != DecisionDrop {
		t.Errorf("extracted decision %v, want drop", sc.Sampled)
	}
	// No decision in ctx → no header.
	h2 := http.Header{}
	InjectHTTP(ContextWithSpanContext(t.Context(), SpanContext{TraceID: "tr", SpanID: "sp"}), h2)
	if h2.Get(HeaderSampled) != "" {
		t.Errorf("unexpected X-RAI-Sampled %q", h2.Get(HeaderSampled))
	}
	if SamplingFrom(ctx) != DecisionDrop {
		t.Error("SamplingFrom lost the decision")
	}
}
