package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/archivex"
	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/docstore"
	"rai/internal/registry"
	"rai/internal/sandbox"
	"rai/internal/shell"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// WorkerConfig tunes a worker ("These limits can be changed using the
// RAI worker configuration file", paper §V).
type WorkerConfig struct {
	// ID names the worker in job records.
	ID string
	// MaxConcurrent is the number of jobs accepted at once: multiple
	// early in the course, one during the benchmarking weeks (§V, §VII).
	MaxConcurrent int
	// MemoryBytes and Lifetime are the container limits (defaults:
	// 8 GiB, 1 h); a job's container never has a network.
	MemoryBytes int64
	Lifetime    time.Duration
	// RateLimit is the per-user minimum spacing between jobs (30 s).
	RateLimit time.Duration
	// DefaultImage is used when a spec omits the image.
	DefaultImage string
	// Cost overrides the execution cost model (simulation calibration).
	Cost shell.CostModel
	// GPUs is the device count this worker offers; build specs that
	// request more (the paper's reserved "machine requirements"
	// extension, §V) are rejected so the broker can hand them to a
	// bigger worker.
	GPUs int
	// AllowSessions enables interactive sessions on this worker (the
	// paper's §VIII future work; an instructor configuration decision).
	AllowSessions bool
	// SessionIdleTimeout closes sessions with no commands (default 10m).
	SessionIdleTimeout time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		c.ID = "worker-0"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = sandbox.DefaultMemoryBytes
	}
	if c.Lifetime == 0 {
		c.Lifetime = sandbox.DefaultLifetime
	}
	if c.RateLimit == 0 {
		c.RateLimit = 30 * time.Second
	}
	if c.DefaultImage == "" {
		c.DefaultImage = "webgpu/rai:root"
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	return c
}

// Worker executes jobs from the queue inside sandboxed containers
// (paper §V "Worker Operations").
type Worker struct {
	Cfg      WorkerConfig
	Queue    broker.Queue
	Objects  Objects
	DB       docstore.Store
	Auth     *auth.Registry
	Images   *registry.Registry
	DataFS   *vfs.FS // course data volume mounted at /data
	DataPath string  // path of the data directory inside DataFS
	Clock    clock.Clock
	// Telemetry and Tracer, when set, record job metrics (queue delay,
	// in-flight, per-phase timings) and the worker-side spans of each
	// job's trace. Both are optional and nil-safe.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Log, when set, emits structured lifecycle events stamped with each
	// job's trace identity. Optional and nil-safe.
	Log *telemetry.Logger

	runtime *sandbox.Runtime
	chunks  *cas.Cache // verified chunks of the trees this worker fetched, shared by its slots
	mu      sync.Mutex
	sub     broker.Consumer
	wg      sync.WaitGroup
	handled atomic.Int64
	tel     workerTelemetry
}

// workerTelemetry caches the per-job instruments resolved once in
// initRuntime; all fields no-op when Telemetry is nil.
type workerTelemetry struct {
	queueDelay *telemetry.HDRHistogram
	inFlight   *telemetry.Gauge
	jobSecs    *telemetry.HDRHistogram
	jobs       map[string]*telemetry.Counter      // by terminal status
	phases     map[string]*telemetry.HDRHistogram // by execution phase
	// Manifest-materialization accounting (DESIGN.md §16); nil-safe
	// no-ops without a registry.
	casFetches *telemetry.Counter
	casBytes   *telemetry.Counter
}

// initRuntime lazily builds the container runtime and the chunk cache.
func (w *Worker) initRuntime() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.runtime == nil {
		w.runtime = sandbox.NewRuntime(w.Images)
	}
	if w.chunks == nil {
		w.chunks = cas.NewCache(cas.CacheBytes)
	}
	if w.Clock == nil {
		w.Clock = clock.Real{}
	}
	w.Cfg = w.Cfg.withDefaults()
	if w.Telemetry != nil && w.tel.jobs == nil {
		reg := w.Telemetry
		w.tel.queueDelay = reg.Histogram("rai_queue_delay_seconds",
			"time from submission to worker pickup (the paper's Figure 4 queue delay)")
		w.tel.inFlight = reg.Gauge("rai_worker_jobs_in_flight", "jobs executing right now")
		w.tel.jobSecs = reg.Histogram("rai_worker_job_seconds",
			"modeled container wall time per job")
		w.tel.jobs = map[string]*telemetry.Counter{}
		for _, st := range []string{StatusSucceeded, StatusFailed, StatusRejected} {
			w.tel.jobs[st] = reg.Counter("rai_worker_jobs_total", "jobs finished", telemetry.L("status", st))
		}
		w.tel.phases = map[string]*telemetry.HDRHistogram{}
		for _, ph := range []string{"pull", "build", "run"} {
			w.tel.phases[ph] = reg.Histogram("rai_worker_phase_seconds",
				"modeled time per execution phase", telemetry.L("phase", ph))
		}
		w.tel.casFetches = reg.Counter("rai_cas_materialize_chunks_total", "chunks fetched while materializing manifests")
		w.tel.casBytes = reg.Counter("rai_cas_materialize_bytes_total", "chunk bytes fetched while materializing manifests")
	}
}

// Run subscribes to rai/tasks and processes jobs until ctx is
// done or Stop is called, then drains: the subscription closes (so the
// broker requeues anything undelivered for other workers) but jobs
// already executing run to completion — killing a student's job halfway
// through grading would be worse than a slow shutdown. Each job is
// handled in its own goroutine, bounded by MaxConcurrent through the
// queue's in-flight window (§V: "we place constraints on the number of
// jobs that can be executed concurrently").
func (w *Worker) Run(ctx context.Context) error {
	w.initRuntime()
	sub, err := w.Queue.Subscribe(ctx, TasksTopic, TasksChannel, w.Cfg.MaxConcurrent)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.sub = sub
	w.mu.Unlock()
	// ctx ending closes the subscription, which ends the loop below.
	stop := context.AfterFunc(ctx, func() { sub.Close() })
	defer stop()
	for m := range sub.C() {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			// In-flight jobs survive shutdown: detach from ctx's cancel
			// while keeping its values.
			w.process(context.WithoutCancel(ctx), sub, m)
		}()
	}
	w.wg.Wait()
	return nil
}

// Stop detaches from the queue and waits for in-flight jobs.
func (w *Worker) Stop() {
	w.mu.Lock()
	sub := w.sub
	w.mu.Unlock()
	if sub != nil {
		sub.Close()
	}
	w.wg.Wait()
}

// HandleOne synchronously processes a single pending job (used by the
// course simulator and tests). It waits up to wait (on the worker's
// clock) for a job to arrive and reports whether one was handled.
func (w *Worker) HandleOne(ctx context.Context, wait time.Duration) (bool, error) {
	w.initRuntime()
	sub, err := w.Queue.Subscribe(ctx, TasksTopic, TasksChannel, 1)
	if err != nil {
		return false, err
	}
	defer sub.Close()
	select {
	case m, ok := <-sub.C():
		if !ok {
			return false, nil
		}
		// Like Run: once accepted, the job runs to completion even
		// if the waiting caller's ctx winds down.
		w.process(context.WithoutCancel(ctx), sub, m)
		return true, nil
	case <-w.Clock.After(wait):
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// Handled reports how many jobs this worker has completed.
func (w *Worker) Handled() int {
	return int(w.handled.Load())
}

// job is one accepted queue message on its way through the stages: the
// request, what the stages have established so far (spec, /src, the
// container and its output pipes) and the outcome finish records.
type job struct {
	req     JobRequest
	attempt int             // the broker's delivery count, this one included
	span    *telemetry.Span // "dequeue"; every stage's span is its child
	stage   *telemetry.Span // the running stage's span
	spec    *build.Spec     // nil for an interactive session
	src     *vfs.FS
	ctr     *sandbox.Container
	log     *jobLog // the job's side of its log topic
	stdout  *logPipe
	stderr  *logPipe
	failed  bool

	elapsed, internalTimer time.Duration
	accuracy               float64
	timeReport             string
	buildBucket, buildKey  string
}

// stage is one named step of a job (paper §V "Worker Operations"). An
// error from run either rejects the job (a rejection: nothing more runs)
// or fails it: the error is the job's log line, and from then on only
// the stages marked always run.
type stage struct {
	name   string
	run    func(ctx context.Context, j *job) error
	always bool
}

// rejection is a stage's refusal to run the job at all; its text is the
// reason the student reads.
type rejection string

func (r rejection) Error() string { return string(r) }

// errSettled stops a redelivered job whose terminal state is already on
// record: its first worker ran it to the end and died before the ack.
var errSettled = errors.New("core: job already settled")

// process is the runner's entry: it opens the job a queue message
// carries, admits it, runs the stages admission implies, and settles the
// message through the subscription that delivered it. ctx carries
// request values but no cancellation — an accepted job runs to
// completion and its ack still reaches the broker while the worker
// drains.
func (w *Worker) process(ctx context.Context, sub broker.Consumer, m *broker.Message) {
	defer w.handled.Add(1)
	// A malformed message has nobody to reply to: it is only acked.
	if ctx, j := w.dequeue(ctx, m); j != nil {
		defer j.span.End()
		defer j.log.close()
		w.tel.inFlight.Add(1)
		defer w.tel.inFlight.Add(-1)
		if w.run(ctx, j, stage{name: "admit", run: w.admit}) {
			w.run(ctx, j, w.stages(j)...)
		}
	}
	_ = sub.Ack(ctx, m)
}

// dequeue decodes a message into a job and continues the client's trace
// under a "dequeue" span whose IDs rode inside the request. The returned
// context carries that span and the job ID, so storage RPCs (and their
// server-side spans) and log events land in the same tree. nil means the message is not a job request.
func (w *Worker) dequeue(ctx context.Context, m *broker.Message) (context.Context, *job) {
	j := &job{attempt: m.Attempts}
	if err := json.Unmarshal(m.Body, &j.req); err != nil {
		return ctx, nil
	}
	// Figure 4's queue delay: submission to worker pickup.
	w.tel.queueDelay.Observe(w.Clock.Now().Sub(j.req.SubmittedAt).Seconds())
	j.span = w.Tracer.StartSpan(j.req.TraceID, j.req.ParentSpan, "dequeue")
	j.span.SetAttr("worker", w.Cfg.ID)
	j.span.SetAttr("job_id", j.req.ID)
	ctx = telemetry.ContextWithJobID(ctx, j.req.ID)
	ctx = telemetry.ContextWithSpan(ctx, j.span)
	j.log = newJobLog(ctx, w.Queue, w.Clock, j.req.ID)
	w.Log.Info(ctx, "job dequeued",
		telemetry.L("worker", w.Cfg.ID), telemetry.L("kind", j.req.Kind), telemetry.L("user", j.req.User))
	return ctx, j
}

// run is the runner: each stage runs inside a child span of dequeue
// named after it, and is skipped once the job has failed unless it is
// marked always. A rejection becomes the rejected record, the End
// message, the span's status/error and the counter, and stops the job;
// run then reports false.
func (w *Worker) run(ctx context.Context, j *job, stages ...stage) bool {
	for _, st := range stages {
		if j.failed && !st.always {
			continue
		}
		j.stage = j.span.Child(st.name)
		sctx := telemetry.ContextWithSpan(ctx, j.stage)
		err := st.run(sctx, j)
		var reason rejection
		stop := errors.Is(err, errSettled)
		switch {
		case errors.As(err, &reason):
			stop = true
			j.log.systemf("job rejected: %s", reason)
			j.log.send(&LogMessage{Kind: LogEnd, Status: StatusRejected, Reason: string(reason)})
			w.recordJob(sctx, &j.req, docstore.M{"status": StatusRejected, "error": string(reason)})
			w.tel.jobs[StatusRejected].Inc()
			// The status attr is the collector's tail-retention signal: a
			// rejected trace is an error trace and is always kept.
			j.span.SetAttr("status", StatusRejected)
			j.span.SetAttr("error", string(reason))
			w.Log.Warn(sctx, "job rejected", telemetry.L("reason", string(reason)))
		case err != nil && !stop:
			j.log.systemf("%v", err)
			j.failed = true
		}
		j.stage.End()
		if stop {
			return false
		}
	}
	return true
}

// stages is the plan of an admitted job: download, start, one stage per
// build command — "build", renamed "run" when the command performed
// inference — or, for an interactive session, one "session" stage
// holding the command loop; then store-build and finish, which run
// after a failure too.
func (w *Worker) stages(j *job) []stage {
	plan := []stage{{name: "download", run: w.download}, {name: "start", run: w.start}}
	if j.spec == nil {
		plan = append(plan, stage{name: "session", run: w.session})
	} else {
		for _, cmd := range j.spec.RAI.Commands.Build {
			plan = append(plan, stage{name: "build", run: func(ctx context.Context, j *job) error {
				j.stage.SetAttr("cmd", cmd)
				r, err := w.exec(ctx, j, cmd)
				if r.RanInference {
					j.stage.SetName("run")
				}
				if err != nil && !killed(err) {
					return fmt.Errorf("command failed (exit %d)", r.ExitCode)
				}
				return err
			}})
		}
	}
	return append(plan,
		stage{name: "store-build", run: w.storeBuild, always: true},
		stage{name: "finish", run: w.finish, always: true})
}

// admit is worker step 2: the token must verify, the kind must be one
// this worker runs, the user must be past the rate limit, and a build
// file must parse and fit the worker's GPUs. The job is then recorded as
// running (auditing, §IV).
func (w *Worker) admit(ctx context.Context, j *job) error {
	req := &j.req
	if err := w.Auth.VerifyToken(req.AccessKey, req.Token, req.CanonicalPayload()); err != nil {
		return rejection("authentication failed: " + err.Error())
	}
	// Only a redelivery can find its own terminal record; the first
	// delivery costs no lookup.
	if j.attempt > 1 {
		if doc, err := w.DB.FindOne(ctx, CollJobs, docstore.M{"job_id": req.ID}); err == nil {
			switch doc["status"] {
			case StatusSucceeded, StatusFailed, StatusRejected:
				return errSettled
			}
		}
	}
	switch {
	case req.Kind != KindRun && req.Kind != KindSubmit && req.Kind != KindSession:
		return rejection("unknown job kind " + req.Kind)
	case req.Kind == KindSession && !w.Cfg.AllowSessions:
		return rejection(ErrSessionsDisabled.Error())
	}
	// Rate limit: one job per RateLimit per user (§V "Container
	// Execution": "each student can only submit a job every 30 seconds").
	if ok, wait := w.rateLimitOK(ctx, req.User, req.ID); !ok {
		return rejection(fmt.Sprintf("rate limited: retry in %v", wait.Round(time.Second)))
	}
	if req.Kind != KindSession {
		spec, err := w.resolveSpec(req)
		if err != nil {
			return rejection(err.Error())
		}
		if spec.RAI.Resources.GPUs > w.Cfg.GPUs {
			return rejection(fmt.Sprintf("spec requests %d GPUs; this worker offers %d", spec.RAI.Resources.GPUs, w.Cfg.GPUs))
		}
		j.spec = spec
	}
	w.recordJob(ctx, req, docstore.M{"status": "running", "worker": w.Cfg.ID})
	return nil
}

// resolveSpec picks the effective build file: the enforced Listing 2
// spec for final submissions, the embedded spec (or Listing 1 default)
// otherwise.
func (w *Worker) resolveSpec(req *JobRequest) (*build.Spec, error) {
	if req.Kind == KindSubmit {
		return build.Submission(), nil
	}
	if len(req.BuildSpec) == 0 {
		return build.Default(), nil
	}
	spec, err := build.Parse(req.BuildSpec)
	if err != nil {
		return nil, fmt.Errorf("invalid build specification: %v", err)
	}
	return spec, nil
}

// rateLimitOK consults the job records for the user's last accepted
// job other than jobID itself: a redelivered job whose first worker
// died after recording it as running must not be limited by its own
// record.
func (w *Worker) rateLimitOK(ctx context.Context, user, jobID string) (bool, time.Duration) {
	if w.Cfg.RateLimit <= 0 {
		return true, 0
	}
	docs, err := w.DB.Find(ctx, CollJobs, docstore.M{
		"user":   user,
		"status": docstore.M{"$ne": StatusRejected},
		"job_id": docstore.M{"$ne": jobID},
	}, docstore.FindOpts{Sort: []string{"-created_at"}, Limit: 1})
	if err != nil || len(docs) == 0 {
		return true, 0
	}
	createdStr, _ := docs[0]["created_at"].(string)
	last, err := time.Parse(time.RFC3339Nano, createdStr)
	if err != nil {
		return true, 0
	}
	elapsed := w.Clock.Now().Sub(last)
	if elapsed < w.Cfg.RateLimit {
		return false, w.Cfg.RateLimit - elapsed
	}
	return true, 0
}

// recordJob upserts the job document.
func (w *Worker) recordJob(ctx context.Context, req *JobRequest, fields docstore.M) {
	set := docstore.M{
		"user":          req.User,
		"kind":          req.Kind,
		"created_at":    req.SubmittedAt.UTC().Format(time.RFC3339Nano),
		"upload_bucket": req.UploadBucket,
		"upload_key":    req.UploadKey,
	}
	for k, v := range fields {
		set[k] = v
	}
	_, _ = w.DB.Upsert(ctx, CollJobs, docstore.M{"job_id": req.ID}, docstore.M{"$set": set})
}

// download is worker step 4. It reads the job's upload object — a chunk
// manifest, read under cas.MaxManifestBytes and validated by cas.Decode
// before any chunk is touched — and materializes the tree it describes
// at /src of a fresh filesystem: chunks this worker already verified come
// from its cache, the rest from one chunk stream, each hash-verified as
// it lands. Any other upload object, a .tar.bz2 included, fails the job.
// Under the stage's span nest the manifest read and, unless the cache
// held every chunk, the one chunk stream; the span counts what was
// fetched (attrs "chunks", "bytes") and what the cache served ("cached").
// A final submission must also carry its USAGE file and report.
func (w *Worker) download(ctx context.Context, j *job) error {
	rc, _, err := w.Objects.GetReader(ctx, j.req.UploadBucket, j.req.UploadKey)
	if err != nil {
		return fmt.Errorf("cannot download project manifest: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(rc, cas.MaxManifestBytes+1))
	rc.Close()
	if err != nil {
		return fmt.Errorf("cannot download project manifest: %w", err)
	}
	m, err := cas.Decode(body)
	if err != nil {
		return fmt.Errorf("cannot decode project manifest %s/%s: %w", j.req.UploadBucket, j.req.UploadKey, err)
	}
	j.src = vfs.New()
	st, err := cas.Materialize(ctx, m, w.Objects, w.chunks, j.src, "/src")
	w.tel.casFetches.Add(float64(st.Fetched))
	w.tel.casBytes.Add(float64(st.Bytes))
	j.stage.SetAttr("bytes", fmt.Sprint(int64(len(body))+st.Bytes))
	j.stage.SetAttr("chunks", fmt.Sprint(st.Fetched))
	j.stage.SetAttr("cached", fmt.Sprint(st.Cached))
	if err != nil {
		return fmt.Errorf("cannot materialize project tree: %w", err)
	}
	if j.req.Kind == KindSubmit {
		return CheckSubmissionFiles(j.src.IOFS("/src"))
	}
	return nil
}

// start is worker step 3: the sandboxed container (pulled through the
// worker's image cache) with /src and the course data mounted read-only
// and its output piped onto the job's log.
func (w *Worker) start(ctx context.Context, j *job) error {
	image := w.Cfg.DefaultImage
	if j.spec != nil {
		image = j.spec.RAI.Image
	}
	j.stdout = &logPipe{log: j.log, kind: LogStdout}
	j.stderr = &logPipe{log: j.log, kind: LogStderr}
	ctr, err := w.runtime.Start(sandbox.Config{
		Image: image,
		Mounts: []sandbox.Mount{
			{Source: j.src, SourcePath: "/src", Target: "/src", ReadOnly: true},
			{Source: w.DataFS, SourcePath: w.DataPath, Target: "/data", ReadOnly: true},
		},
		MemoryBytes: w.Cfg.MemoryBytes,
		Lifetime:    w.Cfg.Lifetime,
		Stdout:      j.stdout,
		Stderr:      j.stderr,
		Cost:        w.Cfg.Cost,
	})
	if err != nil {
		return fmt.Errorf("cannot start container: %w", err)
	}
	j.ctr = ctr
	j.elapsed += ctr.PullLatency
	w.tel.phases["pull"].Observe(ctr.PullLatency.Seconds())
	return nil
}

// exec runs one command in the job's container (worker step 5), streams
// its output and adds its modeled wall time — and, for the graded
// inference, accuracy and internal timer — to the job's. The phase
// metric observes that modeled time, not the stage's wall time.
func (w *Worker) exec(ctx context.Context, j *job, cmd string) (shell.Result, error) {
	j.log.systemf("$ %s", cmd)
	r, err := j.ctr.Exec(cmd)
	j.stdout.Flush()
	j.stderr.Flush()
	j.elapsed += r.Wall
	phase := "build"
	if r.RanInference {
		phase = "run"
		j.internalTimer, j.accuracy = r.InternalTimer, r.Accuracy
	}
	w.tel.phases[phase].Observe(r.Wall.Seconds())
	if r.TimeReport != "" {
		j.timeReport = r.TimeReport
	}
	if killed(err) {
		err = fmt.Errorf("container killed: %w", err)
	}
	return r, err
}

// killed reports whether a command's error is the container's death.
func killed(err error) bool {
	return errors.Is(err, sandbox.ErrLifetimeExceeded) || errors.Is(err, sandbox.ErrMemoryExceeded)
}

// storeBuild is worker step 6: /build is archived, the container torn
// down, and the archive stored where the End message will point. Neither
// failure fails the job; each is reported on its log.
func (w *Worker) storeBuild(ctx context.Context, j *job) error {
	if j.ctr == nil {
		return nil
	}
	blob, err := archivex.PackVFS(j.ctr.FS(), "/build")
	j.ctr.Destroy()
	if err != nil {
		j.log.systemf("cannot pack build directory: %v", err)
		return nil
	}
	key := fmt.Sprintf("%s/%s/build.tar.bz2", j.req.User, j.req.ID)
	if err := w.Objects.Put(ctx, BucketBuilds, key, blob, UploadTTL); err != nil {
		j.log.systemf("failed to upload build directory: %v", err)
		return nil
	}
	j.buildBucket, j.buildKey = BucketBuilds, key
	j.log.systemf("build directory uploaded to %s/%s", BucketBuilds, key)
	return nil
}

// finish records the job's terminal state, ranks a successful final
// submission ("overwriting existing records", §V "Student Final
// Submission") and publishes End.
func (w *Worker) finish(ctx context.Context, j *job) error {
	status := StatusSucceeded
	if j.failed {
		status = StatusFailed
		j.span.SetAttr("error", "job failed")
	}
	w.tel.jobs[status].Inc()
	// The terminal status lets the collector's tail retention keep
	// failed traces at 100%.
	j.span.SetAttr("status", status)
	w.tel.jobSecs.Observe(j.elapsed.Seconds())
	var logBytes int64
	if j.stdout != nil {
		logBytes = j.stdout.Bytes() + j.stderr.Bytes()
	}
	w.recordJob(ctx, &j.req, docstore.M{
		"status":           status,
		"elapsed_s":        j.elapsed.Seconds(),
		"internal_timer_s": j.internalTimer.Seconds(),
		"accuracy":         j.accuracy,
		"time_report":      j.timeReport,
		"build_bucket":     j.buildBucket,
		"build_key":        j.buildKey,
		"log_bytes":        logBytes,
	})
	if j.req.Kind == KindSubmit && !j.failed {
		_, _ = w.DB.Upsert(ctx, CollRankings, docstore.M{"team": j.req.User}, docstore.M{"$set": docstore.M{
			"runtime_s":  j.internalTimer.Seconds(),
			"accuracy":   j.accuracy,
			"job_id":     j.req.ID,
			"updated_at": w.Clock.Now().UTC().Format(time.RFC3339Nano),
		}})
	}
	w.Log.Info(ctx, "job finished",
		telemetry.L("status", status), telemetry.L("elapsed_s", fmt.Sprintf("%.3f", j.elapsed.Seconds())))
	j.log.send(&LogMessage{
		Kind:          LogEnd,
		Status:        status,
		Elapsed:       j.elapsed.Seconds(),
		InternalTimer: j.internalTimer.Seconds(),
		Accuracy:      j.accuracy,
		BuildBucket:   j.buildBucket,
		BuildKey:      j.buildKey,
	})
	return nil
}
