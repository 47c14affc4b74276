package telemetry

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/clock"
)

// spanRecorder keeps the spans a tracer's sink receives, as the
// exporter would ship them.
type spanRecorder struct {
	mu    sync.Mutex
	spans []SpanData
}

func (r *spanRecorder) record(d SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, d)
}

// trace returns one trace's spans by start time, the root first on
// ties with its children.
func (r *spanRecorder) trace(traceID string) []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanData
	for _, d := range r.spans {
		if d.TraceID == traceID {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ParentID == "" && out[j].ParentID != ""
	})
	return out
}

func TestSpanTreeConnected(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2016, 11, 11, 0, 0, 0, 0, time.UTC))
	var rec spanRecorder
	tr := NewTracer(WithTracerClock(vc), WithSpanSink(rec.record))

	root := tr.StartRoot("job")
	enq := root.Child("enqueue")
	vc.Advance(2 * time.Second)
	enq.End()

	// Worker side: continue the trace from propagated IDs.
	deq := tr.StartSpan(root.TraceID(), root.SpanID(), "dequeue")
	vc.Advance(time.Second)
	deq.End()
	build := deq.Child("build")
	build.SetAttr("image", "webgpu/rai:root")
	vc.Advance(30 * time.Second)
	build.SetName("run")
	build.End()
	vc.Advance(time.Second)
	root.End()

	spans := rec.trace(root.TraceID())
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if !Connected(spans) {
		t.Fatalf("span tree not connected: %+v", spans)
	}
	if spans[0].Name != "job" || spans[0].ParentID != "" {
		t.Errorf("first span = %q parent %q, want root job", spans[0].Name, spans[0].ParentID)
	}
	names := map[string]SpanData{}
	for _, d := range spans {
		names[d.Name] = d
	}
	if d := names["run"]; d.Attrs["image"] != "webgpu/rai:root" || d.Duration() != 30*time.Second {
		t.Errorf("run span = %+v", d)
	}
	if names["dequeue"].ParentID != root.SpanID() {
		t.Error("dequeue not parented to propagated root span")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x")
	s.SetAttr("k", "v")
	s.SetName("y")
	c := s.Child("z")
	c.End()
	s.End()
	if s.TraceID() != "" || s.SpanID() != "" {
		t.Error("nil span has IDs")
	}
	if tr.StartSpan("t", "p", "n") != nil {
		t.Error("nil tracer started a span")
	}
}

func TestConnectedDetectsOrphans(t *testing.T) {
	spans := []SpanData{
		{TraceID: "t", SpanID: "1", Name: "root"},
		{TraceID: "t", SpanID: "2", ParentID: "missing", Name: "orphan"},
	}
	if Connected(spans) {
		t.Error("orphan tree reported connected")
	}
	if Connected(nil) {
		t.Error("empty tree reported connected")
	}
	two := []SpanData{
		{TraceID: "t", SpanID: "1", Name: "root"},
		{TraceID: "t", SpanID: "2", Name: "second root"},
	}
	if Connected(two) {
		t.Error("two roots reported connected")
	}
}

func TestTracerConcurrent(t *testing.T) {
	var rec spanRecorder
	tr := NewTracer(WithSpanSink(rec.record))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root := tr.StartRoot("job")
				c := root.Child("phase")
				c.SetAttr("n", "1")
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if len(rec.spans) != 8*100*2 {
		t.Errorf("sink saw %d spans, want %d", len(rec.spans), 8*100*2)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	snap, err := ParseText(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("hits_total"); !ok || v != 1 {
		t.Errorf("hits_total = %v,%v", v, ok)
	}
	post, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

// TestTraceHeaderPropagation: the three X-RAI headers carry a span's
// identity and job across an HTTP hop and back, and nothing else rides
// with them.
func TestTraceHeaderPropagation(t *testing.T) {
	ctx := ContextWithJobID(ContextWithSpanContext(t.Context(), SpanContext{TraceID: "tr", SpanID: "sp"}), "job-1")
	h := http.Header{}
	InjectHTTP(ctx, h)
	if len(h) != 3 || h.Get("X-RAI-Trace-ID") != "tr" || h.Get("X-RAI-Parent-Span") != "sp" || h.Get("X-RAI-Job-ID") != "job-1" {
		t.Fatalf("injected headers = %v", h)
	}
	if sc, jobID := ExtractHTTP(h); sc != (SpanContext{TraceID: "tr", SpanID: "sp"}) || jobID != "job-1" {
		t.Errorf("extracted %+v, job %q", sc, jobID)
	}
	h = http.Header{}
	InjectHTTP(t.Context(), h)
	if len(h) != 0 {
		t.Errorf("untraced context injected %v", h)
	}
}
