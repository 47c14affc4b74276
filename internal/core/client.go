package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/telemetry"
	"rai/internal/vfs"
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
	// Sampler, when set, makes the head-sampling decision at each job's
	// trace root; the verdict rides the request context (X-RAI-Sampled
	// on storage hops) and the job envelope so every downstream process
	// agrees. The same sampler should wrap the Tracer's span sink so the
	// client's own spans honor the verdict. Nil keeps every trace.
	Sampler *telemetry.Sampler
	// Log, when set, emits structured lifecycle events stamped with the
	// job's trace identity. Optional and nil-safe.
	Log *telemetry.Logger
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
	// Sampled reports the head-sampling verdict for the trace: false
	// only when a sampler decided to drop it (unsampled clients always
	// report true). Dropped traces never reach the collector, so
	// tooling should not wait for their spans.
	Sampled bool
	// Transfer describes the upload; nil when the job reran an upload
	// already on the file server (ResubmitContext).
	Transfer *TransferStats
}

// PrepareProject inspects the project directory in fs, returning the
// build spec: the student's rai-build.yml when present, otherwise the
// Listing 1 default (client step 1).
func PrepareProject(fs *vfs.FS, dir string) (*build.Spec, error) {
	specPath := dir + "/" + build.FileName
	if !fs.Exists(dir) {
		return nil, fmt.Errorf("core: project directory %s does not exist", dir)
	}
	if fs.Exists(specPath) {
		data, err := fs.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := build.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", build.FileName, err)
		}
		return spec, nil
	}
	return build.Default(), nil
}

// CheckSubmissionFiles enforces the final-submission requirements: the
// USAGE file and report.pdf must be present (paper §V "Student Final
// Submission" step 2).
func CheckSubmissionFiles(fs *vfs.FS, dir string) error {
	for _, f := range []string{"USAGE", "report.pdf"} {
		if !fs.Exists(dir + "/" + f) {
			return fmt.Errorf("%w: missing %s", ErrMissingFiles, f)
		}
	}
	return nil
}

// Submit runs the full client sequence for the project tree
// described by m, whose chunk payloads come from src (cas.BuildDir or
// cas.BuildVFS produce the pair). kind is KindRun or KindSubmit; spec
// is the parsed build file (ignored by workers for KindSubmit). It
// blocks streaming logs to Stdout until the End message arrives;
// canceling ctx abandons the job (the worker still runs it, but nobody
// is watching the log topic).
func (c *Client) Submit(ctx context.Context, kind string, spec *build.Spec, m *cas.Manifest, src cas.Source) (*JobResult, error) {
	jobID := NewJobID()
	root, sampled := c.startJobSpan(jobID, kind)
	ctx = telemetry.ContextWithJobID(ctx, jobID)
	ctx = telemetry.ContextWithSampling(ctx, sampled)
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

// ResubmitContext enqueues a job against an upload already on the file
// server — the grading path: instructors rerun a team's recorded final
// submission multiple times and keep the best time (§VI, §VII).
func (c *Client) ResubmitContext(ctx context.Context, kind, uploadBucket, uploadKey string) (*JobResult, error) {
	jobID := NewJobID()
	root, sampled := c.startJobSpan(jobID, kind)
	return c.submitUploaded(telemetry.ContextWithSampling(ctx, sampled), root, jobID, kind, nil, uploadBucket, uploadKey)
}

// startJobSpan opens the trace root covering the whole submission and
// makes the head-sampling decision for it — once, here, so every child
// span and downstream process inherits one verdict.
func (c *Client) startJobSpan(jobID, kind string) (*telemetry.Span, telemetry.Decision) {
	root := c.Tracer.StartRoot("job")
	root.SetAttr("job_id", jobID)
	root.SetAttr("kind", kind)
	root.SetAttr("user", c.Creds.UserName)
	sampled := telemetry.DecisionUnknown
	if c.Sampler != nil && root.TraceID() != "" {
		sampled = c.Sampler.Decide(root.TraceID())
	}
	return root, sampled
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

	specBytes := []byte{}
	if spec != nil {
		enc, err := spec.Encode()
		if err != nil {
			return nil, err
		}
		specBytes = enc
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
		Sampled:      telemetry.SamplingFrom(ctx).String(),
	}
	req.Token = authToken(c, req)

	submitted := clk.Now()
	enq := root.Child("enqueue")
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
		Sampled: telemetry.SamplingFrom(ctx) != telemetry.DecisionDrop,
	}
	var timeout <-chan time.Time
	if c.LogWait > 0 {
		timeout = clk.After(c.LogWait)
	}
	for {
		select {
		case m, ok := <-sub.C():
			if !ok {
				return res, fmt.Errorf("core: log stream closed before End message")
			}
			_ = sub.Ack(ctx, m)
			var lm LogMessage
			if err := json.Unmarshal(m.Body, &lm); err != nil {
				continue // tolerate malformed log lines
			}
			switch lm.Kind {
			case LogStdout, LogStderr, LogSystem:
				res.LogLines++
				if c.Stdout != nil {
					fmt.Fprintln(c.Stdout, lm.Line)
				}
			case LogEnd:
				c.Telemetry.Histogram("rai_client_job_seconds",
					"submit-to-End wall time seen by the client").
					Observe(clk.Now().Sub(submitted).Seconds())
				res.Status = lm.Status
				res.Elapsed = time.Duration(lm.Elapsed * float64(time.Second))
				res.InternalTimer = time.Duration(lm.InternalTimer * float64(time.Second))
				res.Accuracy = lm.Accuracy
				res.BuildBucket = lm.BuildBucket
				res.BuildKey = lm.BuildKey
				c.Log.Info(ctx, "job finished", telemetry.L("status", lm.Status))
				if lm.Status == StatusRejected {
					return res, fmt.Errorf("%w: %s", ErrRejected, lm.Line)
				}
				return res, nil
			}
		case <-timeout:
			return res, fmt.Errorf("core: timed out waiting for job %s output", jobID)
		case <-ctx.Done():
			return res, fmt.Errorf("core: waiting for job %s output: %w", jobID, ctx.Err())
		}
	}
}

// authToken signs a job request with the client's credentials.
func authToken(c *Client, req *JobRequest) string {
	return auth.Token(c.Creds, req.CanonicalPayload())
}

// DownloadBuildContext fetches the /build archive produced by the
// worker.
func (c *Client) DownloadBuildContext(ctx context.Context, res *JobResult) ([]byte, error) {
	if res.BuildBucket == "" || res.BuildKey == "" {
		return nil, fmt.Errorf("core: job %s has no build artifact", res.JobID)
	}
	return c.Objects.Get(ctx, res.BuildBucket, res.BuildKey)
}
