package collector_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/collector"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// TestEndToEndConnectedTrace runs a real job through the full
// observability pipeline — client and worker over the broker, storage
// over HTTP with trace headers, every service exporting through a
// bounded exporter, one collector persisting — and asserts the
// acceptance criterion: `raiadmin trace <job_id>` sees one connected
// span tree covering client, broker enqueue/dequeue, worker build/run,
// and a child span inside each storage server, with zero drops.
func TestEndToEndConnectedTrace(t *testing.T) {
	b := broker.New()
	defer b.Close()
	queue := core.BrokerQueue{B: b}

	// Each service gets its own exporter, all shipping onto the same
	// telemetry route; the test doubles as the happy-path drop check.
	exporters := map[string]*telemetry.Exporter{}
	newTracer := func(service string) *telemetry.Tracer {
		exp := telemetry.NewExporter(context.Background(), service, core.ShipTelemetry(queue))
		exporters[service] = exp
		return telemetry.NewTracer(1024, telemetry.WithSpanSink(exp.ExportSpan),
			telemetry.WithTracerInstance(service))
	}

	// Storage over HTTP so the X-RAI trace headers actually cross a wire
	// and the servers contribute their own child spans.
	objStore := objstore.New()
	objSrv := httptest.NewServer(objstore.Handler(objStore, nil,
		objstore.WithHandlerTracer(newTracer("raifs"))))
	defer objSrv.Close()
	db := docstore.New()
	dbSrv := httptest.NewServer(docstore.Handler(db, nil,
		docstore.WithHandlerTracer(newTracer("raidb"))))
	defer dbSrv.Close()

	authReg := auth.NewRegistry()
	creds, err := authReg.Issue("team-trace")
	if err != nil {
		t.Fatal(err)
	}

	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	dataFS.WriteFile("/data/model.hdf5", model)
	small, _ := cnn.SynthesizeDataset(nw, 5, 10)
	blob, _ := small.Encode()
	dataFS.WriteFile("/data/test10.hdf5", blob)
	full, _ := cnn.SynthesizeDataset(nw, 6, 20)
	blob, _ = full.Encode()
	dataFS.WriteFile("/data/testfull.hdf5", blob)

	worker := &core.Worker{
		Cfg:      core.WorkerConfig{ID: "w1", MaxConcurrent: 1},
		Queue:    queue,
		Objects:  objstore.NewClient(objSrv.URL),
		DB:       docstore.NewClient(dbSrv.URL),
		Auth:     authReg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
		Tracer:   newTracer("raiworker"),
	}
	worker.Log = telemetry.NewLogger("raiworker",
		telemetry.WithLogSink(exporters["raiworker"].ExportEvent))

	client := &core.Client{
		Creds:   creds,
		Queue:   queue,
		Objects: objstore.NewClient(objSrv.URL),
		Stdout:  &bytes.Buffer{},
		LogWait: time.Minute,
		Tracer:  newTracer("rai"),
	}
	client.Log = telemetry.NewLogger("rai",
		telemetry.WithLogSink(exporters["rai"].ExportEvent))

	// The collector persists into the same metadata store the job record
	// lands in, over the same HTTP server (so its writes are traced
	// infrastructure too, though its own spans are not part of this job).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coll := &collector.Collector{Queue: queue, DB: docstore.NewClient(dbSrv.URL)}
	collDone := make(chan error, 1)
	go func() { collDone <- coll.Run(ctx) }()

	// Run one job end to end.
	projFS := vfs.New()
	if err := project.WriteTo(projFS, "/p", project.Spec{Impl: cnn.ImplIm2col, Team: "team-trace"}); err != nil {
		t.Fatal(err)
	}
	// Enough distinct chunks that the worker stops tracing them one by one.
	for i := 0; i < 20; i++ {
		projFS.WriteFile(fmt.Sprintf("/p/notes/%02d.txt", i), []byte(fmt.Sprintf("note %d\n", i)))
	}
	m, src, err := cas.BuildVFS(projFS, "/p")
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *core.JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := client.SubmitContext(context.Background(), core.KindRun, build.Default(), m, src)
		done <- out{res, err}
	}()
	if _, err := worker.HandleOne(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var res *core.JobResult
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("submit: %v", o.err)
		}
		res = o.res
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish")
	}
	if res.Status != core.StatusSucceeded {
		t.Fatalf("job status = %q", res.Status)
	}

	// Push everything through: exporters flush their partial batches, the
	// collector persists them (poll — it acks asynchronously).
	for _, exp := range exporters {
		exp.Flush()
	}
	required := []string{"job", "upload", "enqueue", "dequeue", "download", "build", "run"}
	var spans []collector.Span
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans, err = collector.TraceByJob(db, res.JobID)
		if have := spanNames(spans); err == nil && containsAll(have, required) &&
			hasServicePrefix(spans, "raifs", "objstore") && hasServicePrefix(spans, "raidb", "docstore") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace incomplete after flush: err=%v spans=%v", err, spanNames(spans))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One tree, fully connected, phases present.
	timeline := collector.FormatTimeline(spans)
	if strings.Contains(timeline, "not fully connected") {
		t.Errorf("trace not connected:\n%s", timeline)
	}
	traceID := spans[0].TraceID
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Errorf("span %s has trace %s, want %s", s.Name, s.TraceID, traceID)
		}
	}
	// A download of this many chunks is one span: the manifest GET nests
	// under it, the chunk GETs open no span of their own and are counted
	// on it instead.
	var download, manifestGet bool
	for _, s := range spans {
		switch path := s.Attrs["path"]; {
		case s.Name == "download":
			download = true
			if s.Attrs["chunks"] == "" || s.Attrs["chunks"] == "0" {
				t.Errorf("download span counts no chunks: %v", s.Attrs)
			}
		case strings.HasPrefix(path, "/o/"+cas.Bucket+"/"):
			t.Errorf("chunk fetch opened its own span: %s %s", s.Name, path)
		case s.Name == "objstore get" && strings.HasPrefix(path, "/o/"+core.BucketUploads+"/"):
			manifestGet = true
		}
	}
	if !download || !manifestGet {
		t.Errorf("download span %v, manifest GET span %v (timeline:\n%s)", download, manifestGet, timeline)
	}
	phases := map[string]bool{}
	for _, p := range collector.Phases(spans) {
		phases[p.Name] = p.Duration >= 0
	}
	for _, want := range []string{"upload", "enqueue", "download", "build", "run", "total"} {
		if !phases[want] {
			t.Errorf("phase %q missing from decomposition (timeline:\n%s)", want, timeline)
		}
	}

	// The job's merged event stream crossed services.
	events, err := collector.EventsByJob(db, res.JobID, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[string]bool{}
	for _, e := range events {
		msgs[e.Service+": "+e.Msg] = true
	}
	for _, want := range []string{"rai: job submitted", "raiworker: job dequeued", "raiworker: job finished"} {
		if !msgs[want] {
			t.Errorf("event stream missing %q (have %v)", want, msgs)
		}
	}

	// Acceptance: the happy path drops nothing.
	for service, exp := range exporters {
		if ds, de := exp.Dropped(); ds != 0 || de != 0 {
			t.Errorf("%s exporter dropped %d spans / %d events on the happy path", service, ds, de)
		}
		exp.Close()
	}
	cancel()
	select {
	case <-collDone:
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not stop")
	}
}

func spanNames(spans []collector.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

func containsAll(have []string, want []string) bool {
	set := map[string]bool{}
	for _, n := range have {
		set[n] = true
	}
	for _, n := range want {
		if !set[n] {
			return false
		}
	}
	return true
}

// hasServicePrefix reports whether some span was emitted by service and
// named with the given prefix (e.g. raifs's "objstore put").
func hasServicePrefix(spans []collector.Span, service, prefix string) bool {
	for _, s := range spans {
		if s.Service == service && strings.HasPrefix(s.Name, prefix) {
			return true
		}
	}
	return false
}
