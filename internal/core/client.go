package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/telemetry"
)

// Client implements the student-side workflow (paper §V "Client
// Execution"): validate the project, upload it, enqueue the job, stream
// the log topic to the terminal, and return the result carried by the
// End message.
type Client struct {
	Creds   auth.Credentials
	Queue   broker.Queue
	Objects Objects
	// Stdout receives streamed job output (the student's terminal).
	Stdout io.Writer
	// Clock is the time source (virtual in simulations).
	Clock clock.Clock
	// LogWait bounds how long the client waits for the End message; zero
	// means no timeout (daemon deployments rely on broker liveness).
	LogWait time.Duration
	// Telemetry and Tracer, when set, record submission metrics and the
	// client-side spans of the job trace (root "job", children "upload"
	// and "enqueue"). Both are optional and nil-safe.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Log, when set, emits structured lifecycle events stamped with the
	// job's trace identity. Optional and nil-safe.
	Log *telemetry.Logger
	// IDs, when set, is what job IDs are drawn from instead of
	// crypto/rand: a simulation passes a seeded source, so the IDs it
	// prints repeat. It must be safe for concurrent use.
	IDs io.Reader
}

// newJobID mints the ID of the client's next job.
func (c *Client) newJobID() string {
	if c.IDs == nil {
		return NewJobID()
	}
	return jobIDFrom(c.IDs)
}

// JobResult is what the client learns from the End message.
type JobResult struct {
	JobID         string
	Status        string
	Elapsed       time.Duration
	InternalTimer time.Duration
	Accuracy      float64
	BuildBucket   string
	BuildKey      string
	// LogLines counts streamed output lines (useful for the paper's
	// logs/meta-data accounting).
	LogLines int
	// TraceID identifies the job's telemetry trace ("" when the client
	// has no Tracer).
	TraceID string
	// Transfer describes the upload; nil when the job reran an upload
	// already on the file server (Resubmit).
	Transfer *TransferStats
}

// PrepareProject is client step 1 over the project tree fsys: it
// returns the build spec, which is the tree's rai-build.yml when it has
// one (found) and otherwise the Listing 1 default. At most
// build.MaxSpecBytes+1 bytes of the file are read, so an oversized one
// is refused without being read whole.
func PrepareProject(fsys fs.FS) (spec *build.Spec, found bool, err error) {
	if fi, err := fs.Stat(fsys, "."); err != nil || !fi.IsDir() {
		return nil, false, ErrNoProject
	}
	f, err := fsys.Open(build.FileName)
	if err != nil {
		return build.Default(), false, nil
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, build.MaxSpecBytes+1))
	if err == nil {
		spec, err = build.Parse(data)
	}
	if err != nil {
		return nil, true, fmt.Errorf("%s: %w", build.FileName, err)
	}
	return spec, true, nil
}

// CheckSubmissionFiles is client step 2 of a final submission, which
// the worker's admit repeats: the tree fsys must hold the USAGE file
// and report.pdf (paper §V "Student Final Submission").
func CheckSubmissionFiles(fsys fs.FS) error {
	for _, f := range []string{"USAGE", "report.pdf"} {
		if _, err := fs.Stat(fsys, f); err != nil {
			return fmt.Errorf("final submission requires %s", f)
		}
	}
	return nil
}

// Submit runs the full client sequence for the project tree described
// by m, whose chunk payloads come from src (cas.Build produces the
// pair). kind is KindRun or KindSubmit; spec is the parsed build file
// (ignored by workers for KindSubmit). It
// blocks streaming logs to Stdout until the End message arrives;
// canceling ctx abandons the job (the worker still runs it, but nobody
// is watching the log topic).
func (c *Client) Submit(ctx context.Context, kind string, spec *build.Spec, m *cas.Manifest, src cas.Source) (*JobResult, error) {
	jobID := c.newJobID()
	root := c.startJobSpan(jobID, kind)
	ctx = telemetry.ContextWithJobID(ctx, jobID)
	// Step 3: upload the project; one-month lifetime from last use. The
	// upload span rides the request context so the objstore server opens
	// its child spans under it.
	up := root.Child("upload")
	upCtx := telemetry.ContextWithSpan(ctx, up)
	uploadKey, stats, err := c.uploadProject(upCtx, jobID, m, src)
	if err != nil {
		up.End()
		root.End()
		c.Log.Error(upCtx, "project upload failed", telemetry.L("error", err.Error()))
		return nil, fmt.Errorf("core: uploading project: %w", err)
	}
	up.SetAttr("bytes", fmt.Sprint(stats.SentBytes))
	up.SetAttr("chunks_sent", fmt.Sprint(stats.ChunksSent))
	up.SetAttr("chunks_total", fmt.Sprint(stats.ChunksTotal))
	up.End()
	res, err := c.submitUploaded(ctx, root, jobID, kind, spec, BucketUploads, uploadKey)
	if res != nil {
		res.Transfer = stats
	}
	return res, err
}

// Resubmit enqueues a job against an upload already on the file
// server — the grading path: instructors rerun a team's recorded final
// submission multiple times and keep the best time (§VI, §VII).
func (c *Client) Resubmit(ctx context.Context, kind, uploadBucket, uploadKey string) (*JobResult, error) {
	jobID := c.newJobID()
	return c.submitUploaded(ctx, c.startJobSpan(jobID, kind), jobID, kind, nil, uploadBucket, uploadKey)
}

// startJobSpan opens the trace root covering the whole submission.
func (c *Client) startJobSpan(jobID, kind string) *telemetry.Span {
	root := c.Tracer.StartRoot("job")
	root.SetAttr("job_id", jobID)
	root.SetAttr("kind", kind)
	root.SetAttr("user", c.Creds.UserName)
	return root
}

func (c *Client) submitUploaded(ctx context.Context, root *telemetry.Span, jobID, kind string, spec *build.Spec, uploadBucket, uploadKey string) (*JobResult, error) {
	defer root.End()
	if kind != KindRun && kind != KindSubmit {
		return nil, fmt.Errorf("core: unknown job kind %q", kind)
	}
	ctx = telemetry.ContextWithSpan(telemetry.ContextWithJobID(ctx, jobID), root)
	clk := c.Clock
	if clk == nil {
		clk = clock.Real{}
	}

	// The enqueue span covers building and signing the request too, so
	// the client's phases leave no gap between upload and the queue.
	enq := root.Child("enqueue")
	specBytes := []byte{}
	if spec != nil {
		specBytes = spec.Encode()
	}
	req := &JobRequest{
		ID:           jobID,
		User:         c.Creds.UserName,
		AccessKey:    c.Creds.AccessKey,
		Kind:         kind,
		BuildSpec:    specBytes,
		UploadBucket: uploadBucket,
		UploadKey:    uploadKey,
		SubmittedAt:  clk.Now(),
		TraceID:      root.TraceID(),
		ParentSpan:   root.SpanID(),
	}
	req.Token = authToken(c, req)

	submitted := clk.Now()
	// Step 5: subscribe to the log topic BEFORE publishing so no output
	// is lost (the broker also buffers a backlog as a second defense).
	sub, err := c.Queue.Subscribe(ctx, LogTopic(jobID), LogChannel, 1024)
	if err != nil {
		enq.End()
		return nil, fmt.Errorf("core: subscribing to log topic: %w", err)
	}
	defer sub.Close()

	// Step 4: push the job request onto the queue.
	if _, err := c.Queue.Publish(ctx, TasksTopic, encodeJSON(req)); err != nil {
		enq.End()
		return nil, fmt.Errorf("core: publishing job: %w", err)
	}
	enq.End()
	c.Telemetry.Counter("rai_client_jobs_total", "jobs submitted", telemetry.L("kind", kind)).Inc()
	c.Log.Info(ctx, "job submitted", telemetry.L("kind", kind), telemetry.L("user", c.Creds.UserName))

	// Step 6: print messages until End (step 8: exit on End).
	res := &JobResult{
		JobID:   jobID,
		TraceID: root.TraceID(),
	}
	var timeout <-chan time.Time
	if c.LogWait > 0 {
		timeout = clk.After(c.LogWait)
	}
	var text []byte
	for {
		select {
		case m, ok := <-sub.C():
			if !ok {
				return res, fmt.Errorf("core: log stream closed before End message")
			}
			_ = sub.Ack(ctx, m)
			var lm LogMessage
			if err := json.Unmarshal(m.Body, &lm); err != nil {
				continue // tolerate malformed log messages
			}
			switch lm.Kind {
			case LogOutput:
				var n int
				text, n = lm.appendText(text[:0])
				res.LogLines += n
				if c.Stdout != nil {
					_, _ = c.Stdout.Write(text)
				}
			case LogEnd:
				c.Telemetry.Histogram("rai_client_job_seconds",
					"submit-to-End wall time seen by the client").
					Observe(clk.Now().Sub(submitted).Seconds())
				c.Log.Info(ctx, "job finished", telemetry.L("status", lm.Status))
				return res, res.settle(&lm)
			}
		case <-timeout:
			return res, fmt.Errorf("core: timed out waiting for job %s output", jobID)
		case <-ctx.Done():
			return res, fmt.Errorf("core: waiting for job %s output: %w", jobID, ctx.Err())
		}
	}
}

// settle copies an End message's outcome into res; a rejection comes
// back as ErrRejected carrying the worker's reason.
func (res *JobResult) settle(end *LogMessage) error {
	res.Status = end.Status
	res.Elapsed = time.Duration(end.Elapsed * float64(time.Second))
	res.InternalTimer = time.Duration(end.InternalTimer * float64(time.Second))
	res.Accuracy = end.Accuracy
	res.BuildBucket, res.BuildKey = end.BuildBucket, end.BuildKey
	if end.Status == StatusRejected {
		return fmt.Errorf("%w: %s", ErrRejected, end.Reason)
	}
	return nil
}

// authToken signs a job request with the client's credentials.
func authToken(c *Client, req *JobRequest) string {
	return auth.Token(c.Creds, req.CanonicalPayload())
}

// DownloadBuild fetches the /build archive produced by the
// worker.
func (c *Client) DownloadBuild(ctx context.Context, res *JobResult) ([]byte, error) {
	if res.BuildBucket == "" || res.BuildKey == "" {
		return nil, fmt.Errorf("core: job %s has no build artifact", res.JobID)
	}
	return c.Objects.Get(ctx, res.BuildBucket, res.BuildKey)
}
