package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
)

// flakyObjects wraps an Objects port and fails selected operations;
// everything else (chunk negotiation and upload included) passes
// through.
type flakyObjects struct {
	Objects
	mu       sync.Mutex
	failGets int // fail this many Get calls, then recover
	failPuts int
	// cutChunks, when set, ends every chunk stream with this error once
	// half of its chunks have been handed over.
	cutChunks error
	// chunkReads counts GetChunks calls.
	chunkReads int
}

func (f *flakyObjects) GetChunks(ctx context.Context, hashes []string, each func(string, []byte) error) error {
	f.mu.Lock()
	f.chunkReads++
	cut := f.cutChunks
	f.mu.Unlock()
	if cut == nil {
		return f.Objects.GetChunks(ctx, hashes, each)
	}
	if err := f.Objects.GetChunks(ctx, hashes[:len(hashes)/2], each); err != nil {
		return err
	}
	return cut
}

func (f *flakyObjects) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	f.mu.Lock()
	fail := f.failGets > 0
	if fail {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected: file server unavailable")
	}
	return f.Objects.Get(ctx, bucket, key)
}

func (f *flakyObjects) Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error {
	f.mu.Lock()
	fail := f.failPuts > 0
	if fail {
		f.failPuts--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("injected: file server unavailable")
	}
	return f.Objects.Put(ctx, bucket, key, data, ttl)
}

// GetReader shares the failure counter with Get, so the worker's
// manifest download exercises the same injected faults as its other
// reads.
func (f *flakyObjects) GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error) {
	f.mu.Lock()
	fail := f.failGets > 0
	if fail {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		return nil, 0, errors.New("injected: file server unavailable")
	}
	return f.Objects.GetReader(ctx, bucket, key)
}

// failingDB wraps a docstore.Store and errors every write.
type failingDB struct{ inner docstore.Store }

func (f failingDB) Insert(_ context.Context, coll string, doc any) (string, error) {
	return "", errors.New("injected: database down")
}
func (f failingDB) Find(_ context.Context, coll string, filter docstore.M, opts docstore.FindOpts) ([]docstore.M, error) {
	return nil, errors.New("injected: database down")
}
func (f failingDB) FindOne(_ context.Context, coll string, filter docstore.M) (docstore.M, error) {
	return nil, errors.New("injected: database down")
}
func (f failingDB) Count(_ context.Context, coll string, filter docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}
func (f failingDB) Update(_ context.Context, coll string, filter, update docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}
func (f failingDB) Upsert(_ context.Context, coll string, filter, update docstore.M) (string, error) {
	return "", errors.New("injected: database down")
}
func (f failingDB) Delete(_ context.Context, coll string, filter docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}

func TestWorkerDownloadFailureFailsJobCleanly(t *testing.T) {
	e := newEnv(t)
	flaky := &flakyObjects{Objects: e.objects, failGets: 100}
	e.worker.Objects = flaky
	c := e.client(t, "team-flaky")
	var term strings.Builder
	c.Stdout = &term
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	// The client is told, promptly and cleanly — no hang, no crash.
	if res.Status != StatusFailed {
		t.Fatalf("status = %q", res.Status)
	}
	if !strings.Contains(term.String(), "cannot download project manifest") {
		t.Errorf("terminal:\n%s", term.String())
	}
}

// TestChunkLostMidFetchFailsJobCleanly: the chunk stream dies for good
// part-way through the tree — a chunk swept under the fetch, after half
// of /src has already been assembled. The job fails with one system
// line saying so, and nothing is built from the half tree.
func TestChunkLostMidFetchFailsJobCleanly(t *testing.T) {
	e := newEnv(t)
	lost := fmt.Errorf("%w: %q/%q", objstore.ErrNoObject, cas.Bucket, "sha256/ab/abcd")
	flaky := &flakyObjects{Objects: e.objects, cutChunks: lost}
	e.worker.Objects = flaky
	c := e.client(t, "team-swept")
	var term strings.Builder
	c.Stdout = &term
	_, proj := projectTree(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("status = %q, want failed", res.Status)
	}
	if n := strings.Count(term.String(), "cannot materialize project tree"); n != 1 || !strings.Contains(term.String(), "sha256/ab/abcd") {
		t.Errorf("want one system line naming the lost chunk, got %d:\n%s", n, term.String())
	}
	if strings.Contains(term.String(), "Building project") {
		t.Errorf("a build ran on a partial /src:\n%s", term.String())
	}
	if flaky.chunkReads != 1 {
		t.Errorf("%d chunk streams opened, want 1", flaky.chunkReads)
	}
}

// TestHostileChunkHashFailsJobBeforeChunkIO: a student-written manifest
// whose chunk "hash" is 64 characters of path — sealed, sizes adding up,
// aimed through ChunkKey at another student's upload — is refused when
// it is decoded: the job fails with the decode error and the worker has
// asked the store for no chunk.
func TestHostileChunkHashFailsJobBeforeChunkIO(t *testing.T) {
	e := newEnv(t)
	flaky := &flakyObjects{Objects: e.objects}
	e.worker.Objects = flaky
	c := e.client(t, "team-mallory")
	var term strings.Builder
	c.Stdout = &term

	const secret = "alice's unreleased kernel"
	if err := e.objects.Put(context.Background(), BucketUploads, "alice/j1/k", []byte(secret), UploadTTL); err != nil {
		t.Fatal(err)
	}
	hostile := strings.Repeat("/.", 17) + "//../../" + BucketUploads + "/alice/j1/k"
	if len(hostile) != 64 {
		t.Fatalf("fixture is %d characters, want the 64 a length check lets through", len(hostile))
	}
	m := &cas.Manifest{
		Files:      []cas.FileEntry{{Path: "stolen.txt", Size: int64(len(secret)), Chunks: []cas.ChunkRef{{Hash: hostile, Size: int64(len(secret))}}}},
		TotalBytes: int64(len(secret)),
	}
	m.Seal()
	key := "team-mallory/j2/project.manifest"
	if err := e.objects.Put(context.Background(), BucketUploads, key, m.Encode(), UploadTTL); err != nil {
		t.Fatal(err)
	}

	type out struct {
		res *JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.ResubmitContext(context.Background(), KindRun, BucketUploads, key)
		done <- out{res, err}
	}()
	if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Status != StatusFailed {
		t.Errorf("status = %q, want failed", o.res.Status)
	}
	if n := strings.Count(term.String(), "cannot decode project manifest"); n != 1 {
		t.Errorf("decode failure reported %d times on the log:\n%s", n, term.String())
	}
	if flaky.chunkReads != 0 {
		t.Errorf("%d chunk reads went out for a refused manifest", flaky.chunkReads)
	}
	if strings.Contains(term.String(), secret) {
		t.Errorf("the victim's object leaked onto the job log:\n%s", term.String())
	}
}

func TestWorkerUploadFailureStillEndsJob(t *testing.T) {
	e := newEnv(t)
	// Client upload works (client uses the real port); only the worker's
	// build upload fails.
	flaky := &flakyObjects{Objects: e.objects, failPuts: 100}
	e.worker.Objects = flaky
	c := e.client(t, "team-buildup")
	var term strings.Builder
	c.Stdout = &term
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	// The job itself succeeded; only the artifact upload was lost.
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
	if res.BuildKey != "" {
		t.Error("build key advertised despite failed upload")
	}
	if !strings.Contains(term.String(), "failed to upload build directory") {
		t.Errorf("terminal:\n%s", term.String())
	}
}

func TestWorkerSurvivesDatabaseOutage(t *testing.T) {
	e := newEnv(t)
	e.worker.DB = failingDB{inner: e.db}
	e.worker.Cfg.RateLimit = 0 // the limiter consults the (down) DB
	c := e.client(t, "team-dbless")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata is best-effort; execution is not gated on the database.
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
}

func TestRateLimitFailsOpenWhenDBDown(t *testing.T) {
	e := newEnv(t)
	e.worker.DB = failingDB{inner: e.db}
	// RateLimit active, but its source of truth is down: jobs proceed
	// (availability over strictness for a dev-loop limiter).
	c := e.client(t, "team-ratelimit-db")
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

func TestClientUploadFailure(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-up")
	c.Objects = &flakyObjects{Objects: e.objects, failPuts: 1}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	if _, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src); err == nil || !strings.Contains(err.Error(), "uploading project") {
		t.Fatalf("upload failure: %v", err)
	}
}

// TestCrashedWorkerJobIsRedelivered is the §V resiliency story end to
// end: a worker accepts a job and dies before acknowledging; the broker
// requeues it and a healthy worker completes it — the client never
// notices beyond the delay. That holds whether the doomed worker died
// before or after recording the job as running: the redelivered job
// must not be rate limited by its own record.
func TestCrashedWorkerJobIsRedelivered(t *testing.T) {
	for name, recorded := range map[string]bool{"died on receipt": false, "died after recording the job": true} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			e.worker.Cfg.RateLimit = 30 * time.Second
			c := e.client(t, "team-resilient")
			proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-resilient"})

			type out struct {
				res *JobResult
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
				done <- out{res, err}
			}()

			// The doomed worker: takes the message off rai/tasks and crashes
			// (connection close) without acking.
			doomed, err := e.queue.Subscribe(context.Background(), TasksTopic, TasksChannel, 1)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-doomed.C():
				// received, never acked
				if recorded {
					var req JobRequest
					if err := json.Unmarshal(m.Body, &req); err != nil {
						t.Fatal(err)
					}
					e.worker.recordJob(context.Background(), &req, docstore.M{"status": "running", "worker": "doomed"})
				}
			case <-time.After(5 * time.Second):
				t.Fatal("doomed worker never got the job")
			}
			doomed.Close() // crash: broker requeues the in-flight job

			// A healthy worker picks the redelivered job up.
			if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.res.Status != StatusSucceeded {
					t.Fatalf("status = %q", o.res.Status)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client never got the End message after worker crash")
			}
		})
	}
}

func TestGPUResourceRequestEnforced(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-multi-gpu")
	spec := &build.Spec{RAI: build.Section{
		Version:   "0.2",
		Image:     "webgpu/rai:root",
		Resources: build.Resources{GPUs: 4},
		Commands:  build.Commands{Build: []string{"echo hi"}},
	}}
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	// Default worker offers 1 GPU: rejected.
	_, err := submitAndHandle(t, e, c, KindRun, spec, proj)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("4-GPU spec on 1-GPU worker: %v", err)
	}
	// A 4-GPU worker accepts it.
	e.worker.Cfg.GPUs = 4
	e.clock.Advance(time.Minute)
	res, err := submitAndHandle(t, e, c, KindRun, spec, proj)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("4-GPU spec on 4-GPU worker: %v %+v", err, res)
	}
}

func TestMalformedQueueMessageIgnored(t *testing.T) {
	e := newEnv(t)
	// Garbage on the tasks topic must not wedge the worker.
	if _, err := e.queue.Publish(context.Background(), TasksTopic, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	handled, err := e.worker.HandleOne(context.Background(), 2*time.Second)
	if err != nil || !handled {
		t.Fatalf("malformed message: handled=%v err=%v", handled, err)
	}
	// The worker is still healthy for real jobs.
	c := e.client(t, "team-after-garbage")
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("post-garbage job: %v %+v", res, err)
	}
}
