package collector

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
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
		events, _ := db.Find(context.Background(), core.CollEvents, docstore.M{"job_id": "job-1"}, docstore.FindOpts{})
		if doc, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"span_id": "s1"}); len(events) > 0 && err == nil {
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
		if err := c.Persist(ctx, batch); err != nil {
			t.Fatalf("persist round %d: %v", i, err)
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

// TestPersistIdempotentEvents: the same redelivery must not duplicate
// events either. Each event is upserted under an id derived from its
// content, so a second Persist of the batch rewrites the same
// documents — while two events that differ in any field stay two.
func TestPersistIdempotentEvents(t *testing.T) {
	db := docstore.New()
	c := &Collector{DB: db}
	ev := telemetry.Event{Time: t0, Level: "info", Msg: "job dequeued", TraceID: "tr1", SpanID: "s1", JobID: "j1",
		Attrs: map[string]string{"worker": "w1", "attempt": "1"}}
	other := ev
	other.Attrs = map[string]string{"worker": "w1", "attempt": "2"}
	batch := &Batch{Service: "raiworker", Events: []telemetry.Event{ev, other}}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := c.Persist(ctx, batch); err != nil {
			t.Fatalf("persist round %d: %v", i, err)
		}
	}
	if docs, err := db.Find(ctx, core.CollEvents, docstore.M{}, docstore.FindOpts{}); err != nil || len(docs) != 2 {
		t.Fatalf("events after a redelivered batch = %d, %v; want 2", len(docs), err)
	}
	evs, err := EventsByJob(ctx, db, "j1", 0)
	if err != nil || len(evs) != 2 || evs[0].Service != "raiworker" || evs[0].Attrs["worker"] != "w1" {
		t.Fatalf("events = %+v, %v", evs, err)
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

	traceID, err := TraceIDForJob(ctx, db, "j1")
	if err != nil || traceID != "tr1" {
		t.Fatalf("TraceIDForJob = %q, %v", traceID, err)
	}
	spans, err := TraceSpans(ctx, db, traceID)
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
		"unattributed": time.Second, "reply": 2 * time.Second, "total": 20 * time.Second,
	}
	got := map[string]time.Duration{}
	var order []string
	for _, p := range phases {
		got[p.Name] = p.Duration
		order = append(order, p.Name)
	}
	// The worker's rows are dequeue's children in start order, then what
	// they leave of dequeue's 15 s, then the End's trip back from the last
	// stage to the client.
	if want := "upload enqueue queue delay download build run unattributed reply total"; strings.Join(order, " ") != want {
		t.Errorf("phase order = %q, want %q", strings.Join(order, " "), want)
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

// TelemetryBacklog counts telemetry batches on b that no collector has
// acked yet. Exported for the end-to-end tests of package collector_test.
func TelemetryBacklog(b *broker.Broker) int {
	n := 0
	for _, ts := range b.Stats() {
		if ts.Topic != core.TelemetryTopic {
			continue
		}
		n += ts.Backlog
		for _, cs := range ts.Channels {
			n += cs.Depth + cs.InFlight
		}
	}
	return n
}

// downStore fails every lookup the way an unreachable raidb does.
type downStore struct{ docstore.Store }

var errDown = errors.New("dial tcp 127.0.0.1:7402: connect: connection refused")

func (downStore) FindOne(context.Context, string, docstore.M) (docstore.M, error) {
	return nil, errDown
}

func TestTraceIDForJobReportsStoreErrors(t *testing.T) {
	_, err := TraceIDForJob(context.Background(), downStore{}, "j1")
	if !errors.Is(err, errDown) || strings.Contains(err.Error(), "no spans recorded") {
		t.Fatalf("err = %v, want the transport error and no claim of missing spans", err)
	}
	_, err = TraceIDForJob(context.Background(), docstore.New(), "j1")
	if !errors.Is(err, docstore.ErrNotFound) || !strings.Contains(err.Error(), "no spans recorded for job j1") {
		t.Fatalf("absent job: err = %v", err)
	}
}

// failingStore fails its first fail UpsertMany calls with err, then
// writes through, counting per record how often a write of it landed.
type failingStore struct {
	docstore.Store
	err error

	mu     sync.Mutex
	fail   int
	calls  int
	landed map[string]int // by the op's filter
}

func (f *failingStore) UpsertMany(ctx context.Context, ops []docstore.Upsert) ([]string, error) {
	f.mu.Lock()
	f.calls++
	if f.fail > 0 {
		f.fail--
		f.mu.Unlock()
		return nil, f.err
	}
	for _, op := range ops {
		f.landed[fmt.Sprint(op.Filter)]++
	}
	f.mu.Unlock()
	return f.Store.UpsertMany(ctx, ops)
}

// runUntilAcked runs a collector over store until the one batch it is
// sent has been acked, and returns its registry.
func runUntilAcked(t *testing.T, store docstore.Store, batch *Batch) *telemetry.Registry {
	t.Helper()
	b := broker.New()
	defer b.Close()
	reg := telemetry.NewRegistry()
	c := &Collector{Queue: b, DB: store, Telemetry: reg}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if _, err := b.Publish(ctx, core.TelemetryTopic, batch.Encode()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); TelemetryBacklog(b) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("batch never acked")
		}
	}
	return reg
}

func twoSpanBatch() *Batch {
	return &Batch{
		Service: "raiworker",
		Spans: []telemetry.SpanData{
			span("tr1", "s1", "", "job", 0, time.Second, map[string]string{"job_id": "j1"}),
			span("tr1", "s2", "s1", "run", 0, time.Second/2, nil),
		},
		Events: []telemetry.Event{{Time: t0, Level: "info", Msg: "job dequeued", TraceID: "tr1", JobID: "j1"}},
	}
}

// TestCollectorRequeuesTransientWriteFailure: a batch whose write failed
// retryably goes back on the route instead of being acked away, and is
// persisted, once, when the store recovers.
func TestCollectorRequeuesTransientWriteFailure(t *testing.T) {
	store := &failingStore{Store: docstore.New(), err: errors.New("raidb unreachable"), fail: 2, landed: map[string]int{}}
	reg := runUntilAcked(t, store, twoSpanBatch())
	if store.calls != 3 || len(store.landed) != 3 {
		t.Fatalf("%d writes, %d records landed; want 3 writes landing all 3 records", store.calls, len(store.landed))
	}
	for rec, n := range store.landed {
		if n != 1 {
			t.Errorf("record %s persisted %d times, want once", rec, n)
		}
	}
	if v, _ := reg.Value("rai_collector_batches_total"); v != 1 {
		t.Errorf("batches counter = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_collector_spans_total"); v != 2 {
		t.Errorf("spans counter = %v, want 2", v)
	}
}

// TestCollectorAcksPermanentWriteFailure: a write the store refused for
// good is acked once, never redelivered, and not counted as persisted.
func TestCollectorAcksPermanentWriteFailure(t *testing.T) {
	store := &failingStore{Store: docstore.New(), err: netx.Permanent(errors.New("bad request")), fail: 1 << 30, landed: map[string]int{}}
	reg := runUntilAcked(t, store, twoSpanBatch())
	if store.calls != 1 {
		t.Errorf("%d writes of a permanently failing batch, want 1", store.calls)
	}
	for _, name := range []string{"rai_collector_batches_total", "rai_collector_spans_total", "rai_collector_events_total"} {
		if v, _ := reg.Value(name); v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}
