package sim

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/telemetry"
	"rai/internal/workload"
)

// TestJobTracePropagation asserts the tentpole invariant: one submitted
// job yields one connected span tree covering upload, enqueue, dequeue,
// build, and run, with the queue delay landing in the Figure 4
// histogram.
func TestJobTracePropagation(t *testing.T) {
	d, err := NewDeployment(DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The deployment's tracer keeps nothing; record this job's spans
	// through a sink on the same virtual clock.
	var mu sync.Mutex
	var spans []telemetry.SpanData
	tracer := telemetry.NewTracer(telemetry.WithTracerClock(d.Clock), telemetry.WithSpanSink(func(s telemetry.SpanData) {
		mu.Lock()
		defer mu.Unlock()
		spans = append(spans, s)
	}))
	for _, w := range d.Workers() {
		w.Tracer = tracer
	}
	c, err := d.NewClient("trace-team", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c.Tracer = tracer
	res, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: d.Clock.Now().Add(time.Minute), Team: "trace-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Team: "trace-team"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("JobResult carries no trace ID")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range spans {
		if s.TraceID != res.TraceID {
			t.Fatalf("span %+v outside the job's trace %s", s, res.TraceID)
		}
	}
	if !telemetry.Connected(spans) {
		t.Fatalf("span tree not connected: %+v", spans)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	for _, want := range []string{"job", "upload", "enqueue", "dequeue", "build", "run"} {
		if byName[want] == 0 {
			t.Errorf("trace missing %q span: %+v", want, spans)
		}
	}
	// The dequeue span must be parented to the client's root, proving
	// the IDs crossed the queue inside the JobRequest.
	var rootID string
	for _, s := range spans {
		if s.Name == "job" {
			rootID = s.SpanID
		}
	}
	for _, s := range spans {
		if s.Name == "dequeue" && s.ParentID != rootID {
			t.Errorf("dequeue parent = %q, want root %q", s.ParentID, rootID)
		}
	}

	reg := d.Telemetry
	if v, _ := reg.Value("rai_queue_delay_seconds"); v < 1 {
		t.Errorf("queue-delay histogram has %v samples, want >= 1", v)
	}
	if v, _ := reg.Value("rai_client_jobs_total", telemetry.L("kind", core.KindRun)); v != 1 {
		t.Errorf("client jobs total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_worker_jobs_total", telemetry.L("status", core.StatusSucceeded)); v != 1 {
		t.Errorf("worker succeeded total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_worker_jobs_in_flight"); v != 0 {
		t.Errorf("jobs in flight after completion = %v, want 0", v)
	}
	if v, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", "rai")); v != 1 {
		t.Errorf("broker publish total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_worker_phase_seconds", telemetry.L("phase", "run")); v < 1 {
		t.Errorf("run-phase histogram has %v samples, want >= 1", v)
	}
}

// TestStoreMetricsFromRealJob runs a submission with the object store
// and database behind their real HTTP services and asserts their
// Prometheus exposition carries a counter, a gauge, and a histogram
// populated by the job.
func TestStoreMetricsFromRealJob(t *testing.T) {
	d, err := NewDeployment(DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	objSrv := httptest.NewServer(objstore.Handler(d.Store, nil, objstore.WithTelemetry(d.Telemetry)))
	defer objSrv.Close()
	dbSrv := httptest.NewServer(docstore.Handler(docstore.New(), docstore.WithTelemetry(d.Telemetry)))
	defer dbSrv.Close()

	// Reroute the deployment through the HTTP services.
	d.Objects = objstore.NewClient(objSrv.URL)
	dbClient := docstore.NewClient(dbSrv.URL)
	for _, w := range d.Workers() {
		w.Objects = d.Objects
		w.DB = dbClient
	}

	c, err := d.NewClient("http-team", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: d.Clock.Now().Add(time.Minute), Team: "http-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Team: "http-team"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSucceeded {
		t.Fatalf("job status = %s", res.Status)
	}

	// Both services instrument d.Telemetry, which a daemon serves on its
	// metrics listener: read that exposition directly.
	var exposition bytes.Buffer
	if err := d.Telemetry.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ParseText(&exposition)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("rai_objstore_requests_total", telemetry.L("op", "put")); !ok || v != 1 {
		t.Errorf("objstore puts = %v,%v, want 1 (the build archive)", v, ok)
	}
	// A tree with no index record goes up in two requests: the manifest
	// alone, then the chunks the store lacks with the manifest again.
	if v, ok := snap.Value("rai_objstore_requests_total", telemetry.L("op", "cas-manifest")); !ok || v != 2 {
		t.Errorf("objstore project uploads = %v,%v, want 2", v, ok)
	}
	if v, ok := snap.Value("rai_objstore_used_bytes"); !ok || v <= 0 {
		t.Errorf("objstore used bytes gauge = %v,%v, want > 0", v, ok)
	}
	if v, ok := snap.Value("rai_objstore_request_seconds_count", telemetry.L("op", "get")); !ok || v < 1 {
		t.Errorf("objstore get latency samples = %v,%v, want >= 1", v, ok)
	}

	// The worker read the tree's chunks in one request, and both ends
	// counted them: the worker what it materialized, the server what it
	// streamed out (the manifest rides the same counter).
	if v, ok := snap.Value("rai_objstore_requests_total", telemetry.L("op", "cas-fetch")); !ok || v != 1 {
		t.Errorf("objstore cas-fetch requests = %v,%v, want 1", v, ok)
	}
	chunks, _ := snap.Value("rai_cas_materialize_chunks_total")
	fetched, _ := snap.Value("rai_cas_materialize_bytes_total")
	streamed, _ := snap.Value("rai_objstore_stream_bytes_total", telemetry.L("direction", "out"))
	if chunks < 1 || fetched <= 0 || streamed < fetched {
		t.Errorf("materialized %v chunks, %v bytes; server streamed %v bytes out", chunks, fetched, streamed)
	}

	if v, ok := snap.Value("rai_docstore_requests_total", telemetry.L("verb", "upsert")); !ok || v < 1 {
		t.Errorf("docstore upserts = %v,%v, want >= 1 (job record)", v, ok)
	}
	if v, ok := snap.Value("rai_docstore_requests_in_flight"); !ok || v != 0 {
		t.Errorf("docstore in-flight gauge = %v,%v, want present and 0", v, ok)
	}
	if v, ok := snap.Value("rai_docstore_request_seconds_count", telemetry.L("verb", "upsert")); !ok || v < 1 {
		t.Errorf("docstore upsert latency samples = %v,%v, want >= 1", v, ok)
	}
}
