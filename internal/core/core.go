// Package core implements RAI itself: the job submission protocol
// between the client (on the student's machine) and the workers (on
// GPU-equipped nodes), coordinated through the message broker, the file
// server, and the database — the architecture of the paper's Figure 1.
//
// The client-side steps (§V "Client Execution") and worker-side steps
// (§V "Worker Operations") are implemented faithfully: jobs travel on
// the rai/tasks queue route; each job gets an ephemeral log_${job_id}
// topic carrying stdout/stderr and the End message; project archives and
// /build outputs travel through the object store; execution metadata and
// competition rankings land in the database.
package core

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Queue routes (paper §V "Message Broker Operations").
const (
	// TasksTopic/TasksChannel is where clients publish job requests and
	// all workers subscribe; channel semantics deliver each job to
	// exactly one worker.
	TasksTopic   = "rai"
	TasksChannel = "tasks"
)

// LogTopic returns the ephemeral per-job topic (log_${job_id}/#ch). The
// '#' marks it for garbage collection when the last consumer leaves.
func LogTopic(jobID string) string { return "log_" + jobID + "#ch" }

// LogChannel is the channel clients subscribe to on the log topic.
const LogChannel = "ch"

// Telemetry route: every daemon's exporter publishes span/event batches
// here and the collector subscribes on a shared channel, so exactly one
// collector replica persists each batch. This is the paper's
// rai/telemetry route spelled with a '.' because broker names reserve
// '/' (see broker.validName).
const (
	TelemetryTopic   = "rai.telemetry"
	TelemetryChannel = "collect"
)

// Job kinds.
const (
	KindRun    = "run"    // development submission (rai run)
	KindSubmit = "submit" // final submission (rai submit)
)

// Object store buckets.
const (
	BucketUploads = "rai-uploads" // client project archives
	BucketBuilds  = "rai-builds"  // worker /build output archives
)

// Database collections.
const (
	CollJobs     = "jobs"
	CollRankings = "rankings"
	// CollTraces/CollEvents hold the collector's persisted telemetry:
	// span documents keyed by span_id and log events, both indexed by
	// trace_id/job_id/time for the raiadmin trace/logs queries.
	CollTraces = "traces"
	CollEvents = "events"
)

// UploadTTL is the file-server lifetime for uploaded archives ("deleted
// one month after the last use", §V step 3).
const UploadTTL = 30 * 24 * time.Hour

// JobRequest is the message a client publishes on rai/tasks.
type JobRequest struct {
	ID        string `json:"id"`
	User      string `json:"user"`
	AccessKey string `json:"access_key"`
	// Token authenticates the request: HMAC of the canonical payload
	// under the user's secret key (verified by the worker, §V worker
	// step 2).
	Token string `json:"token"`
	Kind  string `json:"kind"`
	// BuildSpec is the rai-build.yml content embedded in the job message
	// (ignored for final submissions, which use the enforced Listing 2
	// spec).
	BuildSpec []byte `json:"build_spec"`
	// UploadBucket/UploadKey locate the project archive on the file
	// server.
	UploadBucket string    `json:"upload_bucket"`
	UploadKey    string    `json:"upload_key"`
	SubmittedAt  time.Time `json:"submitted_at"`
	// TraceID/ParentSpan carry the client's telemetry trace so the
	// worker's spans join the same tree (one trace per job, client
	// upload through completion). Deliberately excluded from
	// CanonicalPayload: they are observability plumbing, not part of
	// the authenticated request, and relays may rewrite them.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
	// Sampled carries the head-sampling verdict made at the trace root
	// ("1" keep, "0" drop, "" no verdict) so the worker's sampler agrees
	// with the client's even when their configured rates differ. Like
	// TraceID/ParentSpan, excluded from CanonicalPayload.
	Sampled string `json:"sampled,omitempty"`
}

// CanonicalPayload is the byte string the request token signs.
func (j *JobRequest) CanonicalPayload() []byte {
	return []byte(j.ID + "|" + j.User + "|" + j.Kind + "|" + j.UploadBucket + "|" + j.UploadKey + "|" + string(j.BuildSpec))
}

// Log message kinds streamed on the job's log topic.
const (
	LogStdout = "stdout"
	LogStderr = "stderr"
	LogSystem = "system"
	LogEnd    = "end"
)

// LogMessage is one line of job output or the final End message.
type LogMessage struct {
	JobID string `json:"job_id"`
	Kind  string `json:"kind"`
	Line  string `json:"line,omitempty"`
	// End-message fields:
	Status        string  `json:"status,omitempty"` // succeeded | failed | rejected
	Elapsed       float64 `json:"elapsed_s,omitempty"`
	InternalTimer float64 `json:"internal_timer_s,omitempty"`
	Accuracy      float64 `json:"accuracy,omitempty"`
	BuildBucket   string  `json:"build_bucket,omitempty"`
	BuildKey      string  `json:"build_key,omitempty"`
}

// Job terminal statuses.
const (
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
	StatusRejected  = "rejected"
)

// Errors shared across client and worker.
var (
	ErrRejected     = errors.New("core: job rejected")
	ErrRateLimited  = errors.New("core: submission rate limit (one job per 30s)")
	ErrBadToken     = errors.New("core: invalid job token")
	ErrMissingFiles = errors.New("core: final submission requires USAGE and report.pdf")
)

// NewJobID mints a unique job identifier.
func NewJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("core: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// encodeJSON marshals a protocol message, panicking on programmer error
// (all protocol types are marshalable).
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshaling %T: %v", v, err))
	}
	return b
}
