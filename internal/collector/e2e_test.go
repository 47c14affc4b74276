package collector_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
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

// tracedStack is the full observability pipeline in one process: client
// and worker over the broker, storage over HTTP so the X-RAI trace
// headers actually cross a wire and the servers contribute their own
// child spans, every service exporting through its own bounded exporter
// onto the same telemetry route, one collector persisting.
type tracedStack struct {
	db        *docstore.DB
	exporters map[string]*telemetry.Exporter
	client    *core.Client
	worker    *core.Worker
}

// newTracedStack boots the pipeline. With a nil sampler every trace is
// kept. Otherwise the client decides at each trace root with it, and
// every downstream service runs a keep-everything sampler of its own —
// so only the verdict propagated on the job envelope and the
// X-RAI-Sampled header can make them drop a span.
func newTracedStack(t *testing.T, sampler *telemetry.Sampler) *tracedStack {
	t.Helper()
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	s := &tracedStack{db: docstore.New(), exporters: map[string]*telemetry.Exporter{}}

	downstream := func() *telemetry.Sampler {
		if sampler == nil {
			return nil
		}
		return telemetry.NewSampler(1)
	}
	newTracer := func(service string, smp *telemetry.Sampler) *telemetry.Tracer {
		exp := telemetry.NewExporter(context.Background(), service, core.ShipTelemetry(b))
		t.Cleanup(exp.Close)
		s.exporters[service] = exp
		return telemetry.NewTracer(1024, telemetry.WithSpanSink(smp.SpanSink(exp.ExportSpan)),
			telemetry.WithTracerInstance(service))
	}

	fsSampler, dbSampler := downstream(), downstream()
	objSrv := httptest.NewServer(objstore.Handler(objstore.New(), nil,
		objstore.WithHandlerTracer(newTracer("raifs", fsSampler)), objstore.WithHandlerSampler(fsSampler)))
	t.Cleanup(objSrv.Close)
	dbSrv := httptest.NewServer(docstore.Handler(s.db, nil,
		docstore.WithHandlerTracer(newTracer("raidb", dbSampler)), docstore.WithHandlerSampler(dbSampler)))
	t.Cleanup(dbSrv.Close)

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

	s.worker = &core.Worker{
		Cfg:      core.WorkerConfig{ID: "w1", MaxConcurrent: 1, RateLimit: time.Nanosecond},
		Queue:    b,
		Objects:  objstore.NewClient(objSrv.URL),
		DB:       docstore.NewClient(dbSrv.URL),
		Auth:     authReg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
		Sampler:  downstream(),
	}
	s.worker.Tracer = newTracer("raiworker", s.worker.Sampler)
	s.worker.Log = telemetry.NewLogger("raiworker",
		telemetry.WithLogSink(s.exporters["raiworker"].ExportEvent))

	s.client = &core.Client{
		Creds:   creds,
		Queue:   b,
		Objects: objstore.NewClient(objSrv.URL),
		Stdout:  &bytes.Buffer{},
		LogWait: time.Minute,
		Tracer:  newTracer("rai", sampler),
		Sampler: sampler,
	}
	s.client.Log = telemetry.NewLogger("rai",
		telemetry.WithLogSink(s.exporters["rai"].ExportEvent))

	// The collector persists into the same metadata store the job record
	// lands in, over the same HTTP server (so its writes are traced
	// infrastructure too, though its own spans are not part of any job).
	ctx, cancel := context.WithCancel(context.Background())
	coll := &collector.Collector{Queue: b, DB: docstore.NewClient(dbSrv.URL)}
	collDone := make(chan error, 1)
	go func() { collDone <- coll.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-collDone:
		case <-time.After(5 * time.Second):
			t.Error("collector did not stop")
		}
	})
	return s
}

// runJob submits revision rev of the course project (each revision is a
// distinct tree, so every upload moves chunks) and has the worker handle
// it.
func (s *tracedStack) runJob(t *testing.T, rev int) *core.JobResult {
	t.Helper()
	projFS := vfs.New()
	if err := project.WriteTo(projFS, "/p", project.Spec{Impl: cnn.ImplIm2col, Team: "team-trace"}); err != nil {
		t.Fatal(err)
	}
	// A couple of dozen distinct chunks: the fetch is one stream however many.
	for i := 0; i < 20; i++ {
		projFS.WriteFile(fmt.Sprintf("/p/notes/%02d.txt", i), []byte(fmt.Sprintf("note %d rev %d\n", i, rev)))
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
		res, err := s.client.Submit(context.Background(), core.KindRun, build.Default(), m, src)
		done <- out{res, err}
	}()
	if _, err := s.worker.HandleOne(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("submit: %v", o.err)
		}
		if o.res.Status != core.StatusSucceeded {
			t.Fatalf("job status = %q", o.res.Status)
		}
		return o.res
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish")
		return nil
	}
}

// settle pushes everything through: exporters flush their partial
// batches and the collector (which acks asynchronously) is polled until
// it has persisted every span and event they shipped.
func (s *tracedStack) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var spans, events uint64
		for _, exp := range s.exporters {
			exp.Flush()
			ns, ne := exp.Shipped()
			spans, events = spans+ns, events+ne
		}
		gotSpans, _ := s.db.Count(context.Background(), core.CollTraces, docstore.M{})
		gotEvents, _ := s.db.Count(context.Background(), core.CollEvents, docstore.M{})
		if uint64(gotSpans) == spans && uint64(gotEvents) == events {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector persisted %d of %d shipped spans, %d of %d events", gotSpans, spans, gotEvents, events)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// connectedTrace loads a settled job's persisted trace and asserts the
// acceptance criterion: `raiadmin trace <job_id>` sees one connected
// span tree covering client, broker enqueue/dequeue, worker build/run,
// and a child span inside each storage server, with every phase of the
// decomposition present.
func (s *tracedStack) connectedTrace(t *testing.T, jobID string) []collector.Span {
	t.Helper()
	spans, err := collector.TraceByJob(context.Background(), s.db, jobID)
	if err != nil {
		t.Fatalf("job %s: %v", jobID, err)
	}
	required := []string{"job", "upload", "enqueue", "dequeue", "download", "build", "run"}
	if !containsAll(spanNames(spans), required) ||
		!hasServicePrefix(spans, "raifs", "objstore") || !hasServicePrefix(spans, "raidb", "docstore") {
		t.Fatalf("job %s: trace incomplete: spans=%v", jobID, spanNames(spans))
	}
	timeline := collector.FormatTimeline(spans)
	if strings.Contains(timeline, "not fully connected") {
		t.Errorf("job %s: trace not connected:\n%s", jobID, timeline)
	}
	for _, sp := range spans {
		if sp.TraceID != spans[0].TraceID {
			t.Errorf("job %s: span %s has trace %s, want %s", jobID, sp.Name, sp.TraceID, spans[0].TraceID)
		}
	}
	phases := map[string]bool{}
	for _, p := range collector.Phases(spans) {
		phases[p.Name] = p.Duration >= 0
	}
	for _, want := range []string{"upload", "enqueue", "download", "build", "run", "total"} {
		if !phases[want] {
			t.Errorf("job %s: phase %q missing from decomposition (timeline:\n%s)", jobID, want, timeline)
		}
	}
	return spans
}

// noDrops asserts no exporter discarded a record for lack of buffer.
func (s *tracedStack) noDrops(t *testing.T) {
	t.Helper()
	for service, exp := range s.exporters {
		if ds, de := exp.Dropped(); ds != 0 || de != 0 {
			t.Errorf("%s exporter dropped %d spans / %d events on the happy path", service, ds, de)
		}
	}
}

// TestEndToEndConnectedTrace runs a real job through the pipeline and
// asserts one connected tree with zero drops.
func TestEndToEndConnectedTrace(t *testing.T) {
	s := newTracedStack(t, nil)
	res := s.runJob(t, 0)
	s.settle(t)
	spans := s.connectedTrace(t, res.JobID)

	// A download is two requests whatever the tree: the manifest GET and
	// one chunk stream nest under its span, which counts the chunks; no
	// chunk is read by a request of its own.
	var download collector.Span
	for _, sp := range spans {
		if sp.Name == "download" {
			download = sp
			if sp.Attrs["chunks"] == "" || sp.Attrs["chunks"] == "0" || sp.Attrs["bytes"] == "" {
				t.Errorf("download span counts no chunks or bytes: %v", sp.Attrs)
			}
		}
	}
	var manifestGets, fetches int
	for _, sp := range spans {
		switch path := sp.Attrs["path"]; {
		case strings.HasPrefix(path, "/o/"+cas.Bucket+"/"):
			t.Errorf("chunk read by its own request: %s %s", sp.Name, path)
		case sp.Name == "objstore get" && strings.HasPrefix(path, "/o/"+core.BucketUploads+"/"):
			manifestGets++
		case sp.Name == "objstore cas-fetch":
			fetches++
			if sp.ParentID != download.SpanID {
				t.Errorf("chunk stream span is not a child of download: %+v", sp)
			}
		}
	}
	if download.SpanID == "" || manifestGets != 1 || fetches != 1 {
		t.Errorf("download span %q, %d manifest GET spans, %d cas-fetch spans; want one of each (timeline:\n%s)",
			download.SpanID, manifestGets, fetches, collector.FormatTimeline(spans))
	}

	// The worker talks to the file server exactly three times per job:
	// the two download requests above and the PUT of /build.
	byID := map[string]collector.Span{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	var fromWorker []string
	for _, sp := range spans { // ordered by start
		if sp.Service != "raifs" {
			continue
		}
		for up := sp; up.SpanID != ""; up = byID[up.ParentID] {
			if up.Name == "dequeue" {
				fromWorker = append(fromWorker, sp.Name)
				break
			}
		}
	}
	if want := "objstore get, objstore cas-fetch, objstore put"; strings.Join(fromWorker, ", ") != want {
		t.Errorf("worker requests to raifs = [%s], want [%s]", strings.Join(fromWorker, ", "), want)
	}

	// The job's merged event stream crossed services.
	events, err := collector.EventsByJob(context.Background(), s.db, res.JobID, 0)
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
	s.noDrops(t)
}

// TestEndToEndSamplingHonest runs the same pipeline at 10% head
// sampling: the kept fraction tracks the rate, every kept trace is
// whole, and a dropped job leaves no span anywhere — a trace is either
// complete or absent, never a connected-looking fragment.
func TestEndToEndSamplingHonest(t *testing.T) {
	const rate, jobs = 0.1, 40
	sampler := telemetry.NewSampler(rate)
	s := newTracedStack(t, sampler)
	keptTraces := map[string]bool{}
	var keptJobs []string
	for i := 0; i < jobs; i++ {
		if res := s.runJob(t, i); res.Sampled {
			keptTraces[res.TraceID] = true
			keptJobs = append(keptJobs, res.JobID)
		}
	}
	s.settle(t)

	// Within five standard deviations of the rate, floored at ±0.1 so a
	// small run does not flap; and not vacuously — something was kept.
	tol := math.Max(0.1, 5*math.Sqrt(rate*(1-rate)/jobs))
	if frac := float64(len(keptJobs)) / jobs; len(keptJobs) == 0 || math.Abs(frac-rate) > tol {
		t.Fatalf("kept %d/%d traces (%.3f), want %.3f ± %.3f and at least one", len(keptJobs), jobs, frac, rate, tol)
	}
	if sampled, dropped, _ := sampler.Counts(); sampled != uint64(len(keptJobs)) || sampled+dropped != jobs {
		t.Errorf("sampler decided keep %d / drop %d, results report %d kept of %d", sampled, dropped, len(keptJobs), jobs)
	}
	for _, jobID := range keptJobs {
		s.connectedTrace(t, jobID)
	}
	all, err := s.db.Find(context.Background(), core.CollTraces, docstore.M{}, docstore.FindOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range all {
		if id, _ := d["trace_id"].(string); !keptTraces[id] {
			t.Errorf("span %v %q of dropped trace %s was persisted", d["service"], d["name"], id)
		}
	}
	s.noDrops(t)
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
