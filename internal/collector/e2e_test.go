package collector_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
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
// child spans, every service exporting every span through its own
// bounded exporter onto the same telemetry route, one collector
// persisting.
type tracedStack struct {
	broker    *broker.Broker
	db        *docstore.DB
	dbURL     string
	exporters map[string]*telemetry.Exporter
	expReg    *telemetry.Registry // every exporter's drop and ship counters
	expClock  *clock.Virtual      // the exporters' flush timers; only shipAll advances it
	client    *core.Client
	worker    *core.Worker

	mu      sync.Mutex
	shipped map[string]int // spans handed to an exporter, by trace ID
	events  int            // events handed to an exporter
}

// newTracedStack boots the pipeline with the wiring the binaries use;
// collect starts its collector.
func newTracedStack(t *testing.T) *tracedStack {
	t.Helper()
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	s := &tracedStack{broker: b, db: docstore.New(), exporters: map[string]*telemetry.Exporter{}, expReg: telemetry.NewRegistry(), expClock: clock.NewVirtual(time.Now()), shipped: map[string]int{}}

	newTracer := func(service string) *telemetry.Tracer {
		exp := telemetry.NewExporter(context.Background(), service, core.ShipTelemetry(b),
			telemetry.WithExportMetrics(s.expReg), telemetry.WithExportClock(s.expClock))
		t.Cleanup(exp.Close)
		s.exporters[service] = exp
		sink := func(d telemetry.SpanData) {
			s.mu.Lock()
			s.shipped[d.TraceID]++
			s.mu.Unlock()
			exp.ExportSpan(d)
		}
		return telemetry.NewTracer(telemetry.WithSpanSink(sink), telemetry.WithTracerInstance(service))
	}

	objSrv := httptest.NewServer(objstore.Handler(objstore.New(), nil, objstore.WithHandlerTracer(newTracer("raifs"))))
	t.Cleanup(objSrv.Close)
	dbSrv := httptest.NewServer(docstore.Handler(s.db, docstore.WithHandlerTracer(newTracer("raidb"))))
	t.Cleanup(dbSrv.Close)
	s.dbURL = dbSrv.URL

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
		Tracer:   newTracer("raiworker"),
	}
	s.worker.Log = telemetry.NewLogger("raiworker",
		telemetry.WithLogSink(s.eventSink("raiworker")))

	s.client = &core.Client{
		Creds:   creds,
		Queue:   b,
		Objects: objstore.NewClient(objSrv.URL),
		Stdout:  &bytes.Buffer{},
		LogWait: time.Minute,
		Tracer:  newTracer("rai"),
	}
	s.client.Log = telemetry.NewLogger("rai",
		telemetry.WithLogSink(s.eventSink("rai")))
	return s
}

// eventSink hands a logger's events to service's exporter, counting
// them.
func (s *tracedStack) eventSink(service string) func(telemetry.Event) {
	exp := s.exporters[service]
	return func(ev telemetry.Event) {
		s.mu.Lock()
		s.events++
		s.mu.Unlock()
		exp.ExportEvent(ev)
	}
}

// shipAll waits until the exporters have shipped (or dropped) every
// span and event handed to them, and returns how many they shipped.
// It fires the exporters' flush timers to send partial batches; nothing
// else does, so no flush runs while a job is being timed.
func (s *tracedStack) shipAll(t *testing.T) (spans, events int) {
	t.Helper()
	count := func(name, kind string) int {
		v, _ := s.expReg.Value(name, telemetry.L("kind", kind))
		return int(v)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		handedSpans, handedEvents := 0, s.events
		for _, n := range s.shipped {
			handedSpans += n
		}
		s.mu.Unlock()
		spans, events = count("rai_telemetry_shipped_total", "span"), count("rai_telemetry_shipped_total", "event")
		if spans+count("rai_telemetry_dropped_total", "span") == handedSpans &&
			events+count("rai_telemetry_dropped_total", "event") == handedEvents {
			return spans, events
		}
		if time.Now().After(deadline) {
			t.Fatalf("exporters shipped %d of %d spans, %d of %d events", spans, handedSpans, events, handedEvents)
		}
		s.expClock.Advance(telemetry.DefaultExportInterval)
		time.Sleep(time.Millisecond)
	}
}

// collect runs c over the stack's telemetry route until the test ends.
// It persists into the same metadata store the job record lands in,
// over the same HTTP server (so its writes are traced infrastructure
// too, though its own spans are not part of any job).
func (s *tracedStack) collect(t *testing.T, c *collector.Collector) {
	t.Helper()
	c.Queue, c.DB = s.broker, docstore.NewClient(s.dbURL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("collector did not stop")
		}
	})
}

// runJob submits revision rev of the course project (each revision is a
// distinct tree, so every upload moves chunks) and has the worker run
// it to success.
func (s *tracedStack) runJob(t *testing.T, rev int) *core.JobResult {
	t.Helper()
	res := s.submit(t, rev, core.KindRun)
	if res.Status != core.StatusSucceeded {
		t.Fatalf("job status = %q", res.Status)
	}
	return res
}

// submit sends revision rev as a job of the given kind, has the worker
// handle it, and returns what the client learned.
func (s *tracedStack) submit(t *testing.T, rev int, kind string) *core.JobResult {
	t.Helper()
	projFS := vfs.New()
	if err := project.WriteTo(projFS, "/p", project.Spec{Impl: cnn.ImplIm2col, Team: "team-trace"}); err != nil {
		t.Fatal(err)
	}
	// A couple of dozen distinct chunks: the fetch is one stream however many.
	for i := 0; i < 20; i++ {
		projFS.WriteFile(fmt.Sprintf("/p/notes/%02d.txt", i), []byte(fmt.Sprintf("note %d rev %d\n", i, rev)))
	}
	m, src, err := cas.Build(projFS.IOFS("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *core.JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := s.client.Submit(context.Background(), kind, build.Default(), m, src)
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
		return o.res
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish")
		return nil
	}
}

// settle pushes everything through: exporters ship their partial
// batches and the collector (which acks asynchronously) is polled until
// it has persisted every span and event they shipped.
func (s *tracedStack) settle(t *testing.T) {
	t.Helper()
	spans, events := s.shipAll(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		spanDocs, _ := s.db.Find(context.Background(), core.CollTraces, docstore.M{}, docstore.FindOpts{})
		eventDocs, _ := s.db.Find(context.Background(), core.CollEvents, docstore.M{}, docstore.FindOpts{})
		gotSpans, gotEvents := len(spanDocs), len(eventDocs)
		if gotSpans == spans && gotEvents == events {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector persisted %d of %d shipped spans, %d of %d events", gotSpans, spans, gotEvents, events)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// traceByJob loads a job's spans the way raiadmin trace does.
func traceByJob(db docstore.Store, jobID string) ([]collector.Span, error) {
	traceID, err := collector.TraceIDForJob(context.Background(), db, jobID)
	if err != nil {
		return nil, err
	}
	return collector.TraceSpans(context.Background(), db, traceID)
}

// connectedTrace loads a settled job's persisted trace and asserts the
// acceptance criterion: `raiadmin trace <job_id>` sees one connected
// span tree covering client, broker enqueue/dequeue, worker build/run,
// and a child span inside each storage server, with every phase of the
// decomposition present.
func (s *tracedStack) connectedTrace(t *testing.T, jobID string) []collector.Span {
	t.Helper()
	spans, err := traceByJob(s.db, jobID)
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
	for _, want := range []string{"upload", "enqueue", "admit", "download", "start", "build", "run", "store-build", "finish", "unattributed", "reply", "total"} {
		if !phases[want] {
			t.Errorf("job %s: phase %q missing from decomposition (timeline:\n%s)", jobID, want, timeline)
		}
	}
	return spans
}

// noDrops asserts no exporter discarded a record for lack of buffer.
func (s *tracedStack) noDrops(t *testing.T) {
	t.Helper()
	ds, _ := s.expReg.Value("rai_telemetry_dropped_total", telemetry.L("kind", "span"))
	de, _ := s.expReg.Value("rai_telemetry_dropped_total", telemetry.L("kind", "event"))
	if ds != 0 || de != 0 {
		t.Errorf("exporters dropped %v spans / %v events on the happy path", ds, de)
	}
}

// TestEndToEndConnectedTrace runs a real job through the pipeline and
// asserts one connected tree with zero drops.
func TestEndToEndConnectedTrace(t *testing.T) {
	s := newTracedStack(t)
	s.collect(t, &collector.Collector{})
	res := s.runJob(t, 0)
	s.settle(t)
	spans := s.connectedTrace(t, res.JobID)

	// The worker's job is its stages: dequeue's direct children are
	// exactly admit, download, start, one build/run per command of the
	// spec, store-build and finish.
	var dequeue collector.Span
	for _, sp := range spans {
		if sp.Name == "dequeue" {
			dequeue = sp
		}
	}
	var stages []string
	for _, sp := range spans { // ordered by start
		if sp.ParentID == dequeue.SpanID {
			stages = append(stages, sp.Name)
		}
	}
	want := []string{"admit", "download", "start"}
	for range build.Default().RAI.Commands.Build {
		want = append(want, "build")
	}
	want = append(want, "store-build", "finish")
	if len(stages) != len(want) {
		t.Fatalf("dequeue's children = %v, want %v with build renamed run where it infers", stages, want)
	}
	for i, name := range stages {
		if name != want[i] && !(want[i] == "build" && name == "run") {
			t.Errorf("dequeue's child %d = %q, want %q (children %v)", i, name, want[i], stages)
		}
	}
	// The books close: the named phases cover the job's wall time. What
	// is left is the worker's own time between its stages (part of
	// unattributed) and the moment before upload starts.
	var named, total time.Duration
	for _, p := range collector.Phases(spans) {
		switch p.Name {
		case "total":
			total = p.Duration
		case "unattributed":
		default:
			named += p.Duration
		}
	}
	if coverage := float64(named) / float64(total); coverage < 0.95 {
		t.Errorf("phases cover %.3f of the job's %v, want at least 0.95:\n%s", coverage, total, collector.FormatTimeline(spans))
	}

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

// TestEndToEndSamplingHonest runs the same pipeline with every process
// shipping every span and the collector's tail retention keeping 10 %
// of boring traces: the kept fraction tracks the rate, every trace is
// decided once and is complete or absent, never a connected-looking
// fragment, and a failed job is always kept.
func TestEndToEndSamplingHonest(t *testing.T) {
	const rate, jobs = 0.1, 40
	s := newTracedStack(t)
	// On a virtual clock no trace is decided until every one has arrived.
	clk := clock.NewVirtual(time.Now())
	reg := telemetry.NewRegistry()
	tail := collector.TailConfig{Linger: time.Minute, KeepRate: rate}
	s.collect(t, &collector.Collector{Telemetry: reg, Clock: clk, Tail: tail})
	var runs []*core.JobResult
	for i := 0; i < jobs; i++ {
		runs = append(runs, s.runJob(t, i))
	}
	// A final submission without USAGE and report.pdf fails at the worker.
	failed := s.submit(t, jobs, core.KindSubmit)
	if failed.Status != core.StatusFailed {
		t.Fatalf("forced failure ended %q", failed.Status)
	}

	// Every batch sits in the tail buffer before the linger expires.
	shipped, _ := s.shipAll(t)
	deadline := time.Now().Add(10 * time.Second)
	for collector.TelemetryBacklog(s.broker) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector never drained the telemetry route")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(tail.Linger)
	counter := func(name string, labels ...telemetry.Label) int {
		v, _ := reg.Value(name, labels...)
		return int(v)
	}
	kept := func(reason string) int {
		return counter("rai_collector_tail_kept_total", telemetry.L("reason", reason))
	}
	for {
		docs, _ := s.db.Find(context.Background(), core.CollTraces, docstore.M{}, docstore.FindOpts{})
		persisted := len(docs)
		if persisted+counter("rai_collector_tail_spans_dropped_total") == shipped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("persisted %d and dropped %d of %d shipped spans", persisted, counter("rai_collector_tail_spans_dropped_total"), shipped)
		}
		time.Sleep(time.Millisecond)
	}

	// Each trace was decided once, whole: no fragment was decided alone.
	decided := kept("error") + kept("slow") + kept("sampled") + counter("rai_collector_tail_dropped_total")
	if decided != jobs+1 || kept("error") != 1 {
		t.Fatalf("tail decided %d traces (%d kept as errors), want %d (1)", decided, kept("error"), jobs+1)
	}
	// Within five standard deviations of the rate, floored at ±0.1 so a
	// small run does not flap; and not vacuously — something was kept.
	tol := math.Max(0.1, 5*math.Sqrt(rate*(1-rate)/jobs))
	boring := jobs - kept("slow")
	if frac := float64(kept("sampled")) / float64(boring); kept("sampled") == 0 || math.Abs(frac-rate) > tol {
		t.Fatalf("kept %d/%d boring traces (%.3f), want %.3f ± %.3f and at least one", kept("sampled"), boring, frac, rate, tol)
	}
	t.Logf("kept %d of %d boring traces", kept("sampled"), boring)

	// Complete or absent: a trace's persisted spans are all it shipped,
	// or none of them.
	all, err := s.db.Find(context.Background(), core.CollTraces, docstore.M{}, docstore.FindOpts{})
	if err != nil {
		t.Fatal(err)
	}
	persisted := map[string]int{}
	for _, d := range all {
		id, _ := d["trace_id"].(string)
		persisted[id]++
	}
	s.mu.Lock()
	for id, n := range persisted {
		if n != s.shipped[id] {
			t.Errorf("trace %s: %d of its %d spans persisted", id, n, s.shipped[id])
		}
	}
	s.mu.Unlock()
	if len(persisted) != decided-counter("rai_collector_tail_dropped_total") {
		t.Errorf("%d traces persisted, tail kept %d", len(persisted), decided-counter("rai_collector_tail_dropped_total"))
	}
	for _, res := range runs {
		if persisted[res.TraceID] > 0 {
			s.connectedTrace(t, res.JobID)
		}
	}
	spans, err := traceByJob(s.db, failed.JobID)
	if err != nil || len(spans) == 0 {
		t.Fatalf("failed job %s: trace not kept (err %v)", failed.JobID, err)
	}
	if timeline := collector.FormatTimeline(spans); strings.Contains(timeline, "not fully connected") {
		t.Errorf("failed job's trace not connected:\n%s", timeline)
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
