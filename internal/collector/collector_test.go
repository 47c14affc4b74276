package collector

import (
	"context"
	"strings"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

var t0 = time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)

// span builds a SpanData with offsets from t0.
func span(traceID, spanID, parentID, name string, startOff, endOff time.Duration, attrs map[string]string) telemetry.SpanData {
	return telemetry.SpanData{
		TraceID: traceID, SpanID: spanID, ParentID: parentID, Name: name,
		Start: t0.Add(startOff), End: t0.Add(endOff), Attrs: attrs,
	}
}

func TestCollectorRunPersistsBatches(t *testing.T) {
	b := broker.New()
	defer b.Close()
	db := docstore.New()
	reg := telemetry.NewRegistry()
	c := &Collector{Queue: b, DB: db, Telemetry: reg}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	batch := &Batch{
		Service: "raiworker",
		Spans: []telemetry.SpanData{
			span("tr1", "s1", "", "job", 0, 10*time.Second, map[string]string{"job_id": "job-1"}),
		},
		Events: []telemetry.Event{{
			Time: t0.Add(time.Second), Level: "info", Msg: "job dequeued",
			TraceID: "tr1", SpanID: "s1", JobID: "job-1",
		}},
	}
	// Garbage first: the collector must count it and keep consuming.
	if _, err := b.Publish(ctx, core.TelemetryTopic, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(ctx, core.TelemetryTopic, batch.Encode()); err != nil {
		t.Fatal(err)
	}

	// Persist writes a batch's spans before its events, so the batch is
	// in once its event is.
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, _ := db.Count(context.Background(), core.CollEvents, docstore.M{"job_id": "job-1"})
		if doc, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"span_id": "s1"}); events > 0 && err == nil {
			if doc["trace_id"] != "tr1" || doc["job_id"] != "job-1" || doc["service"] != "raiworker" {
				t.Fatalf("span doc = %v", doc)
			}
			if d, _ := doc["duration_s"].(float64); d != 10 {
				t.Fatalf("duration_s = %v, want 10", doc["duration_s"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("span never persisted")
		}
		time.Sleep(time.Millisecond)
	}
	evs, err := EventsByJob(context.Background(), db, "job-1", 0)
	if err != nil || len(evs) != 1 || evs[0].Msg != "job dequeued" {
		t.Fatalf("events = %v (err %v)", evs, err)
	}
	// The event inherits the batch's service when it carries none.
	if evs[0].Service != "raiworker" {
		t.Errorf("event service = %q, want raiworker", evs[0].Service)
	}
	if got, ok := reg.Value("rai_collector_malformed_total"); !ok || got != 1 {
		t.Errorf("malformed counter = %v (ok=%v), want 1", got, ok)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not stop on ctx cancel")
	}
}

// TestPersistIdempotentSpans mimics at-least-once redelivery: the same
// batch persisted twice must not duplicate span documents (upsert by
// span_id).
func TestPersistIdempotentSpans(t *testing.T) {
	db := docstore.New()
	c := &Collector{DB: db}
	batch := &Batch{
		Service: "rai",
		Spans: []telemetry.SpanData{
			span("tr1", "s1", "", "job", 0, time.Second, map[string]string{"job_id": "j1"}),
			span("tr1", "s2", "s1", "upload", 0, time.Second/2, nil),
		},
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if ns, _ := c.Persist(ctx, batch); ns != 2 {
			t.Fatalf("persist round %d: %d spans, want 2", i, ns)
		}
	}
	docs, err := db.Find(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr1"}, docstore.FindOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("redelivered batch duplicated spans: %d docs, want 2", len(docs))
	}
}

func TestTraceQueriesAndPhases(t *testing.T) {
	db := docstore.New()
	c := &Collector{DB: db}
	ctx := context.Background()
	// A miniature but fully connected job trace: client, worker, and one
	// storage hop each, with a 2 s gap between enqueue end and dequeue.
	c.Persist(ctx, &Batch{Service: "rai", Spans: []telemetry.SpanData{
		span("tr1", "a", "", "job", 0, 20*time.Second, map[string]string{"job_id": "j1"}),
		span("tr1", "b", "a", "upload", 0, time.Second, nil),
		span("tr1", "c", "a", "enqueue", time.Second, 2*time.Second, nil),
	}})
	c.Persist(ctx, &Batch{Service: "raiworker", Spans: []telemetry.SpanData{
		span("tr1", "d", "c", "dequeue", 4*time.Second, 19*time.Second, map[string]string{"job_id": "j1"}),
		span("tr1", "e", "d", "download", 4*time.Second, 5*time.Second, nil),
		span("tr1", "f", "d", "build", 5*time.Second, 10*time.Second, nil),
		span("tr1", "g", "d", "run", 10*time.Second, 18*time.Second, nil),
	}})
	c.Persist(ctx, &Batch{Service: "raifs", Spans: []telemetry.SpanData{
		span("tr1", "h", "b", "objstore put", 0, time.Second/2, map[string]string{"job_id": "j1"}),
	}})

	spans, err := TraceByJob(context.Background(), db, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("loaded %d spans, want 8", len(spans))
	}
	if spans[0].Name != "job" {
		t.Errorf("first span = %q, want the root", spans[0].Name)
	}

	phases := Phases(spans)
	want := map[string]time.Duration{
		"upload": time.Second, "enqueue": time.Second, "queue delay": 2 * time.Second,
		"download": time.Second, "build": 5 * time.Second, "run": 8 * time.Second,
		"total": 20 * time.Second,
	}
	got := map[string]time.Duration{}
	for _, p := range phases {
		got[p.Name] = p.Duration
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("phase %s = %v, want %v", name, got[name], d)
		}
	}

	out := FormatTimeline(spans)
	for _, frag := range []string{"job", "objstore put", "queue delay", "[raiworker]"} {
		if !strings.Contains(out, frag) {
			t.Errorf("timeline missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "not fully connected") {
		t.Errorf("connected trace flagged as disconnected:\n%s", out)
	}

	// Dropping the dequeue span orphans the worker subtree: the timeline
	// must warn rather than silently render a partial trace.
	orphaned := spans[:0:0]
	for _, s := range spans {
		if s.Name != "dequeue" {
			orphaned = append(orphaned, s)
		}
	}
	if !strings.Contains(FormatTimeline(orphaned), "not fully connected") {
		t.Error("timeline with missing span did not warn")
	}
}
