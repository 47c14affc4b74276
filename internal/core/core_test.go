package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/cnn"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// env is a full in-process RAI deployment (Figure 1 without the wires).
type env struct {
	broker  *broker.Broker
	queue   broker.Queue
	objects Objects
	db      *docstore.DB
	authReg *auth.Registry
	images  *registry.Registry
	dataFS  *vfs.FS
	clock   *clock.Virtual
	worker  *Worker
}

var epoch = time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)

func newEnv(t *testing.T) *env {
	t.Helper()
	vc := clock.NewVirtual(epoch)
	b := broker.New(broker.WithClock(vc))
	t.Cleanup(func() { b.Close() })
	store := objstore.New(objstore.WithClock(vc))
	db := docstore.New()
	ar := auth.NewRegistry()
	ar.SetClock(vc.Now)

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

	e := &env{
		broker:  b,
		queue:   b,
		objects: store,
		db:      db,
		authReg: ar,
		images:  registry.NewCourseRegistry(),
		dataFS:  dataFS,
		clock:   vc,
	}
	e.worker = &Worker{
		Cfg:      WorkerConfig{ID: "w1", MaxConcurrent: 1},
		Queue:    e.queue,
		Objects:  e.objects,
		DB:       db,
		Auth:     ar,
		Images:   e.images,
		DataFS:   dataFS,
		DataPath: "/data",
		Clock:    vc,
	}
	return e
}

// client issues credentials and builds a client for user.
func (e *env) client(t *testing.T, user string) *Client {
	t.Helper()
	creds, err := e.authReg.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	return &Client{Creds: creds, Queue: e.queue, Objects: e.objects, Clock: e.clock, Stdout: &bytes.Buffer{}}
}

// tree is a project the way a client holds it: the manifest of its
// files and the source of their chunks.
type tree struct {
	m   *cas.Manifest
	src cas.Source
}

// newProject renders a project spec and hashes it into a manifest.
func newProject(t *testing.T, spec project.Spec) tree {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", spec); err != nil {
		t.Fatal(err)
	}
	m, src, err := cas.Build(fs.IOFS("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree{m, src}
}

// submitAndHandle runs the client submit concurrently with one worker
// handling.
func submitAndHandle(t *testing.T, e *env, c *Client, kind string, spec *build.Spec, proj tree) (*JobResult, error) {
	t.Helper()
	type out struct {
		res *JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Submit(context.Background(), kind, spec, proj.m, proj.src)
		done <- out{res, err}
	}()
	if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("client did not finish")
		return nil, nil
	}
}

func TestEndToEndRunJob(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-alpha")
	var termOut bytes.Buffer
	c.Stdout = &termOut
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-alpha"})

	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatalf("submit: %v\nterminal:\n%s", err, termOut.String())
	}
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q\nterminal:\n%s", res.Status, termOut.String())
	}
	if res.Accuracy != 1.0 {
		t.Errorf("accuracy = %v", res.Accuracy)
	}
	if res.InternalTimer <= 0 {
		t.Errorf("internal timer = %v", res.InternalTimer)
	}
	// The student's terminal shows the build output streamed from the
	// worker through the log topic.
	for _, want := range []string{"Building project", "Built target ece408", "Correctness: 1.0000", "build directory uploaded"} {
		if !strings.Contains(termOut.String(), want) {
			t.Errorf("terminal output missing %q:\n%s", want, termOut.String())
		}
	}
	// The /build archive is retrievable and contains the nvprof timeline.
	buildBlob, err := c.DownloadBuild(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	outFS := vfs.New()
	if err := archivex.UnpackVFS(buildBlob, outFS, "/b", archivex.Limits{}); err != nil {
		t.Fatal(err)
	}
	if !outFS.Exists("/b/timeline.nvprof") {
		t.Error("timeline.nvprof missing from downloaded /build")
	}
	// The ephemeral log topic was garbage collected.
	for _, ts := range e.broker.Stats() {
		if ts.Topic == LogTopic(res.JobID) {
			t.Error("log topic not garbage collected")
		}
	}
	// The job record landed in the database.
	doc, err := e.db.FindOne(context.Background(), CollJobs, docstore.M{"job_id": res.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if doc["status"] != StatusSucceeded || doc["user"] != "team-alpha" {
		t.Errorf("job doc = %v", doc)
	}
}

func TestEndToEndFinalSubmission(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-beta")
	proj := newProject(t, project.Spec{
		Impl: cnn.ImplParallel, Team: "team-beta", WithUsage: true, WithReport: true,
	})
	res, err := submitAndHandle(t, e, c, KindSubmit, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
	// The enforced Listing 2 spec ran the full dataset: ranking recorded.
	doc, err := e.db.FindOne(context.Background(), CollRankings, docstore.M{"team": "team-beta"})
	if err != nil {
		t.Fatalf("ranking record: %v", err)
	}
	if doc["runtime_s"].(float64) <= 0 {
		t.Errorf("ranking = %v", doc)
	}
	// Instructor-only /usr/bin/time report stored in the job record.
	jdoc, _ := e.db.FindOne(context.Background(), CollJobs, docstore.M{"job_id": res.JobID})
	if tr, _ := jdoc["time_report"].(string); !strings.Contains(tr, "real ") {
		t.Errorf("time_report = %q", jdoc["time_report"])
	}
	// The build archive contains the copied submission code (Listing 2
	// line 7).
	blob, err := c.DownloadBuild(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	outFS := vfs.New()
	archivex.UnpackVFS(blob, outFS, "/b", archivex.Limits{})
	if !outFS.Exists("/b/submission_code/CMakeLists.txt") {
		t.Error("submission_code missing from build archive")
	}
}

func TestSubmissionOverwritesRanking(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-gamma")
	slow := newProject(t, project.Spec{Impl: cnn.ImplTiled, Tuning: 1.4, WithUsage: true, WithReport: true})
	fast := newProject(t, project.Spec{Impl: cnn.ImplParallel, Tuning: 0.9, WithUsage: true, WithReport: true})

	if _, err := submitAndHandle(t, e, c, KindSubmit, nil, slow); err != nil {
		t.Fatal(err)
	}
	doc1, _ := e.db.FindOne(context.Background(), CollRankings, docstore.M{"team": "team-gamma"})
	e.clock.Advance(time.Minute) // clear the rate limit
	if _, err := submitAndHandle(t, e, c, KindSubmit, nil, fast); err != nil {
		t.Fatal(err)
	}
	doc2, _ := e.db.FindOne(context.Background(), CollRankings, docstore.M{"team": "team-gamma"})
	if rows, _ := e.db.Find(context.Background(), CollRankings, docstore.M{}, docstore.FindOpts{}); len(rows) != 1 {
		t.Fatalf("ranking rows = %d, want 1 (overwrite semantics)", len(rows))
	}
	if doc2["runtime_s"].(float64) >= doc1["runtime_s"].(float64) {
		t.Errorf("second submission (%v) not faster than first (%v)", doc2["runtime_s"], doc1["runtime_s"])
	}
}

func TestFinalSubmissionRequiresReportAndUsage(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-delta")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col}) // no USAGE/report.pdf
	res, err := submitAndHandle(t, e, c, KindSubmit, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("status = %q, want failed (missing USAGE/report.pdf)", res.Status)
	}
}

func TestBadCredentialsRejected(t *testing.T) {
	e := newEnv(t)
	// Credentials never issued by the instructor tool.
	c := &Client{
		Creds:   auth.NewCredentials("impostor"),
		Queue:   e.queue,
		Objects: e.objects,
		Clock:   e.clock,
	}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, nil, proj)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if res.Status != StatusRejected {
		t.Fatalf("status = %q", res.Status)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	e := newEnv(t)
	creds, _ := e.authReg.Issue("team-x")
	// A forged request claiming another team's identity but signed with
	// the wrong secret.
	forged := auth.Credentials{UserName: "team-y", AccessKey: creds.AccessKey, SecretKey: "wrong-secret-key-wrong-key"}
	c := &Client{Creds: forged, Queue: e.queue, Objects: e.objects, Clock: e.clock}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	if _, err := submitAndHandle(t, e, c, KindRun, nil, proj); !errors.Is(err, ErrRejected) {
		t.Fatalf("forged token: %v", err)
	}
}

func TestRateLimit30Seconds(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-spam")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col})
	if _, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj); err != nil {
		t.Fatal(err)
	}
	// 10 simulated seconds later: rejected.
	e.clock.Advance(10 * time.Second)
	if _, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj); !errors.Is(err, ErrRejected) {
		t.Fatalf("rapid resubmit: %v", err)
	}
	// 31 seconds after the first: accepted.
	e.clock.Advance(21 * time.Second)
	if _, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj); err != nil {
		t.Fatalf("post-cooldown submit: %v", err)
	}
}

// TestRateLimitLookupIsTraced: the rate-limit lookup is the job's first
// database hop. It runs under the job's context, so the database's span
// for it hangs off the worker's admit stage — a child of dequeue — and
// carries the job id.
func TestRateLimitLookupIsTraced(t *testing.T) {
	var mu sync.Mutex
	var spans []telemetry.SpanData
	record := telemetry.WithSpanSink(func(d telemetry.SpanData) {
		mu.Lock()
		defer mu.Unlock()
		spans = append(spans, d)
	})
	e := newEnv(t)
	srv := httptest.NewServer(docstore.Handler(e.db,
		docstore.WithHandlerTracer(telemetry.NewTracer(record, telemetry.WithTracerInstance("raidb")))))
	defer srv.Close()
	e.worker.DB = docstore.NewClient(srv.URL)
	e.worker.Cfg.RateLimit = 30 * time.Second
	e.worker.Tracer = telemetry.NewTracer(record, telemetry.WithTracerInstance("worker"))
	c := e.client(t, "team-traced")
	c.Tracer = telemetry.NewTracer()
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("res = %+v, %v", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	var dequeue, admit, find *telemetry.SpanData
	for i := range spans {
		switch spans[i].Name {
		case "dequeue":
			dequeue = &spans[i]
		case "admit":
			admit = &spans[i]
		case "docstore find":
			find = &spans[i]
		}
	}
	if dequeue == nil || admit == nil || find == nil {
		t.Fatalf("want dequeue, admit and docstore find spans, got %+v", spans)
	}
	if find.TraceID != dequeue.TraceID || find.ParentID != admit.SpanID || admit.ParentID != dequeue.SpanID {
		t.Errorf("docstore find %+v is not a child of admit %+v under dequeue %+v", find, admit, dequeue)
	}
	if find.Attrs["job_id"] != res.JobID {
		t.Errorf("docstore find job_id = %q, want %q", find.Attrs["job_id"], res.JobID)
	}
}

func TestCompileErrorReportedToStudent(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-broken")
	var term bytes.Buffer
	c.Stdout = &term
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled, Bug: "compile"})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("status = %q", res.Status)
	}
	if !strings.Contains(term.String(), "Error 1") {
		t.Errorf("compiler diagnostics not streamed:\n%s", term.String())
	}
	// Failed builds still upload /build so students can inspect logs.
	if res.BuildKey == "" {
		t.Error("no build artifact for failed job")
	}
}

func TestStudentSpecUsedForRun(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-custom")
	var term bytes.Buffer
	c.Stdout = &term
	spec := &build.Spec{RAI: build.Section{
		Version: "0.1",
		Image:   "webgpu/rai:root",
		Commands: build.Commands{Build: []string{
			`echo "custom step one"`,
			`cmake /src`,
			`make`,
		}},
	}}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, spec, proj)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("custom spec run: %v %+v", err, res)
	}
	if !strings.Contains(term.String(), "custom step one") {
		t.Errorf("custom command did not run:\n%s", term.String())
	}
}

func TestNonWhitelistedImageFails(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-evil")
	spec := &build.Spec{RAI: build.Section{
		Version:  "0.1",
		Image:    "evil/miner:latest",
		Commands: build.Commands{Build: []string{"echo hi"}},
	}}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, spec, proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("status = %q, want failed for non-whitelisted image", res.Status)
	}
}

func TestPrepareProject(t *testing.T) {
	fs := vfs.New()
	project.WriteTo(fs, "/p", project.Spec{Impl: cnn.ImplTiled})
	spec, found, err := PrepareProject(fs.IOFS("/p"))
	if err != nil || !found {
		t.Fatal(found, err)
	}
	if spec.RAI.Image != "webgpu/rai:root" {
		t.Errorf("student spec image = %q", spec.RAI.Image)
	}
	// Without rai-build.yml the Listing 1 default applies.
	fs.Remove("/p/rai-build.yml")
	spec, found, err = PrepareProject(fs.IOFS("/p"))
	if err != nil || found {
		t.Fatal(found, err)
	}
	if len(spec.RAI.Commands.Build) != len(build.Default().RAI.Commands.Build) {
		t.Error("default spec not used")
	}
	if _, _, err := PrepareProject(fs.IOFS("/missing")); !errors.Is(err, ErrNoProject) {
		t.Errorf("missing project dir: %v", err)
	}
	if _, _, err := PrepareProject(fs.IOFS("/p/main.cu")); !errors.Is(err, ErrNoProject) {
		t.Errorf("a file as the project dir: %v", err)
	}
	// A malformed rai-build.yml is a loud error, not a silent default.
	fs.WriteFile("/p/rai-build.yml", []byte("rai:\n  version: 99\n"))
	if _, _, err := PrepareProject(fs.IOFS("/p")); err == nil {
		t.Error("malformed spec accepted")
	}
}

// byteCounter is an fs.FS that counts the bytes read from its files.
type byteCounter struct {
	fs.FS
	read int64
}

func (c *byteCounter) Open(name string) (fs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countedFile{f, c}, nil
}

type countedFile struct {
	fs.File
	c *byteCounter
}

func (f countedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.read += int64(n)
	return n, err
}

// TestPrepareProjectReadsSpecUnderLimit: a rai-build.yml over
// build.MaxSpecBytes is refused after at most MaxSpecBytes+1 of its
// bytes are read, not read whole first.
func TestPrepareProjectReadsSpecUnderLimit(t *testing.T) {
	mem := vfs.New()
	huge := "rai:\n  version: 0.1\n#" + strings.Repeat("x", 4*build.MaxSpecBytes) + "\n"
	if err := mem.WriteFile("/p/rai-build.yml", []byte(huge)); err != nil {
		t.Fatal(err)
	}
	tree := &byteCounter{FS: mem.IOFS("/p")}
	if _, _, err := PrepareProject(tree); err == nil {
		t.Fatal("oversized rai-build.yml accepted")
	}
	if tree.read > build.MaxSpecBytes+1 {
		t.Errorf("read %d bytes of a %d-byte rai-build.yml, want at most %d", tree.read, len(huge), build.MaxSpecBytes+1)
	}
}

func TestWorkerRunLoopAndStop(t *testing.T) {
	e := newEnv(t)
	workerDone := make(chan struct{})
	go func() {
		e.worker.Run(context.Background())
		close(workerDone)
	}()
	c := e.client(t, "team-loop")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("submit via run loop: %v %+v", err, res)
	}
	e.worker.Stop()
	select {
	case <-workerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop")
	}
	if e.worker.Handled() != 1 {
		t.Errorf("Handled = %d", e.worker.Handled())
	}
}

func TestMultiConcurrentWorker(t *testing.T) {
	e := newEnv(t)
	e.worker.Cfg.MaxConcurrent = 4
	e.worker.Cfg.RateLimit = 0
	go e.worker.Run(context.Background())
	defer e.worker.Stop()

	const jobs = 4
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		c := e.client(t, "team-par-"+string(rune('a'+i)))
		proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
		go func(c *Client) {
			res, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
			if err == nil && res.Status != StatusSucceeded {
				err = errors.New("status " + res.Status)
			}
			errs <- err
		}(c)
	}
	for i := 0; i < jobs; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("parallel jobs stalled")
		}
	}
}

func TestClientUploadTTLApplied(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-ttl")
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.db.FindOne(context.Background(), CollJobs, docstore.M{"job_id": res.JobID})
	if err != nil {
		t.Fatal(err)
	}
	bucket, _ := job["upload_bucket"].(string)
	key, _ := job["upload_key"].(string)
	info, err := e.objects.(*objstore.Store).Head(context.Background(), bucket, key)
	if err != nil || bucket != BucketUploads {
		t.Fatalf("upload %s/%s: %+v, %v", bucket, key, info, err)
	}
	if info.TTL != UploadTTL {
		t.Errorf("upload TTL = %v, want %v", info.TTL, UploadTTL)
	}
}

func TestLogTopicNaming(t *testing.T) {
	if LogTopic("abc123") != "log_abc123#ch" {
		t.Errorf("LogTopic = %q", LogTopic("abc123"))
	}
	if NewJobID() == NewJobID() {
		t.Error("job ids collide")
	}
}
