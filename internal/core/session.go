package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rai/internal/broker"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/sandbox"
	"rai/internal/telemetry"
)

// Interactive sessions implement the paper's stated future work
// ("allowing instructors to configure interactive sessions to enable
// more debugging and profiling tools", §VIII): instead of running a
// fixed command list, the worker keeps the sandboxed container alive and
// executes commands the student sends one at a time, with every §V limit
// still enforced (whitelisted image, read-only /src, no network, memory
// cap, and the container lifetime bounding the whole session).
//
// Wire layout: the session starts as a job with Kind "session". Commands
// travel on cmd_${job_id}/#ch (client → worker); output and per-command
// completion markers travel on the usual log_${job_id}/#ch topic.

// KindSession marks an interactive session job. Workers only accept it
// when WorkerConfig.AllowSessions is set (an instructor configuration
// decision, per the paper's phrasing).
const KindSession = "session"

// CmdTopic returns the ephemeral client→worker command topic.
func CmdTopic(jobID string) string { return "cmd_" + jobID + "#ch" }

// CmdChannel is the channel workers consume commands from.
const CmdChannel = "ch"

// Session control messages on the command topic.
type sessionCommand struct {
	JobID string `json:"job_id"`
	// Cmd is the shell command to execute; "exit" (or Close=true) ends
	// the session.
	Cmd   string `json:"cmd,omitempty"`
	Close bool   `json:"close,omitempty"`
}

// LogCmdDone is the log-message kind marking one command's completion.
const LogCmdDone = "cmd_done"

// ErrSessionClosed is returned when using a finished session.
var ErrSessionClosed = errors.New("core: session closed")

// ErrSessionsDisabled is the rejection reason when a worker does not
// accept interactive sessions.
var ErrSessionsDisabled = errors.New("core: worker does not accept interactive sessions")

// Session is the client handle for an interactive container.
type Session struct {
	JobID  string
	client *Client
	sub    broker.Consumer
	clk    clock.Clock
	// base is the opening context minus its cancellation: Close must
	// still deliver the close marker (so the worker uploads /build)
	// after the interactive context ends.
	base context.Context
	// Result carries the End-message summary once the session ends.
	Result *JobResult
	closed bool
}

// CommandResult is one interactive command's outcome.
type CommandResult struct {
	Cmd      string
	ExitCode int
	Output   string // interleaved stdout/stderr lines
}

// OpenSession uploads the project tree (m, src — as for
// Submit) and starts an interactive session. The returned
// Session executes commands with Run and must be closed.
func (c *Client) OpenSession(ctx context.Context, m *cas.Manifest, src cas.Source) (*Session, error) {
	clk := c.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	jobID := NewJobID()
	uploadKey, _, err := c.uploadProject(ctx, jobID, m, src)
	if err != nil {
		return nil, fmt.Errorf("core: uploading project: %w", err)
	}
	req := &JobRequest{
		ID: jobID, User: c.Creds.UserName, AccessKey: c.Creds.AccessKey,
		Kind: KindSession, UploadBucket: BucketUploads, UploadKey: uploadKey,
		SubmittedAt: clk.Now(),
	}
	req.Token = tokenFor(c, req)
	sub, err := c.Queue.Subscribe(ctx, LogTopic(jobID), LogChannel, 1024)
	if err != nil {
		return nil, err
	}
	if _, err := c.Queue.Publish(ctx, TasksTopic, encodeJSON(req)); err != nil {
		sub.Close()
		return nil, err
	}
	s := &Session{JobID: jobID, client: c, sub: sub, clk: clk, base: context.WithoutCancel(ctx)}
	// Wait for the worker's ready marker (an empty cmd_done) or an early
	// End (rejection).
	res, err := s.waitCmdDone("")
	if err != nil {
		s.Close()
		return nil, err
	}
	_ = res
	return s, nil
}

// Run executes one command inside the session's container and returns
// its output once the worker signals completion.
func (s *Session) Run(ctx context.Context, cmd string) (*CommandResult, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if _, err := s.client.Queue.Publish(ctx, CmdTopic(s.JobID), encodeJSON(&sessionCommand{JobID: s.JobID, Cmd: cmd})); err != nil {
		return nil, err
	}
	return s.waitCmdDone(cmd)
}

// waitCmdDone collects output until a cmd_done (or End) arrives.
func (s *Session) waitCmdDone(cmd string) (*CommandResult, error) {
	res := &CommandResult{Cmd: cmd}
	var timeout <-chan time.Time
	if s.client.LogWait > 0 {
		timeout = s.clk.After(s.client.LogWait)
	}
	for {
		select {
		case m, ok := <-s.sub.C():
			if !ok {
				s.closed = true
				return nil, fmt.Errorf("core: session %s: log stream closed", s.JobID)
			}
			_ = s.sub.Ack(s.base, m)
			var lm LogMessage
			if err := json.Unmarshal(m.Body, &lm); err != nil {
				continue
			}
			switch lm.Kind {
			case LogStdout, LogStderr, LogSystem:
				res.Output += lm.Line + "\n"
				if s.client.Stdout != nil {
					fmt.Fprintln(s.client.Stdout, lm.Line)
				}
			case LogCmdDone:
				res.ExitCode = int(lm.Elapsed) // exit code rides the numeric field
				return res, nil
			case LogEnd:
				s.closed = true
				s.Result = &JobResult{
					JobID: s.JobID, Status: lm.Status,
					Elapsed:     time.Duration(lm.Elapsed * float64(time.Second)),
					Accuracy:    lm.Accuracy,
					BuildBucket: lm.BuildBucket, BuildKey: lm.BuildKey,
				}
				if lm.Status == StatusRejected {
					return nil, fmt.Errorf("%w: %s", ErrRejected, lm.Line)
				}
				return nil, fmt.Errorf("%w (status %s)", ErrSessionClosed, lm.Status)
			}
		case <-timeout:
			return nil, fmt.Errorf("core: session %s: timed out waiting for command completion", s.JobID)
		}
	}
}

// Close ends the session: the worker uploads /build and sends End.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	_, _ = s.client.Queue.Publish(s.base, CmdTopic(s.JobID), encodeJSON(&sessionCommand{JobID: s.JobID, Close: true}))
	// Drain until End so Result is populated.
	for {
		m, ok := <-s.sub.C()
		if !ok {
			break
		}
		_ = s.sub.Ack(s.base, m)
		var lm LogMessage
		if err := json.Unmarshal(m.Body, &lm); err == nil && lm.Kind == LogEnd {
			s.Result = &JobResult{
				JobID: s.JobID, Status: lm.Status,
				Elapsed:     time.Duration(lm.Elapsed * float64(time.Second)),
				BuildBucket: lm.BuildBucket, BuildKey: lm.BuildKey,
			}
			break
		}
	}
	s.closed = true
	return s.sub.Close()
}

// tokenFor computes the request token (split out so session and batch
// paths share it).
func tokenFor(c *Client, req *JobRequest) string {
	return authToken(c, req)
}

// ---- worker side ----

// runSession drives an interactive session job: container up, then a
// command loop bounded by the container lifetime and an idle timeout.
func (w *Worker) runSession(ctx context.Context, req *JobRequest, logf func(kind, format string, args ...any), parent *telemetry.Span) execResult {
	var res execResult

	hostFS, err := w.fetchProject(ctx, req, parent)
	if err != nil {
		logf(LogSystem, "%v", err)
		return res
	}
	stdout := newLineWriter(func(line string) { logf(LogStdout, "%s", line) })
	stderr := newLineWriter(func(line string) { logf(LogStderr, "%s", line) })
	ctr, err := w.runtime.Start(sandbox.Config{
		Image: w.Cfg.DefaultImage,
		Mounts: []sandbox.Mount{
			{Source: hostFS, SourcePath: "/src", Target: "/src", ReadOnly: true},
			{Source: w.DataFS, SourcePath: w.DataPath, Target: "/data", ReadOnly: true},
		},
		MemoryBytes: w.Cfg.MemoryBytes,
		Lifetime:    w.Cfg.Lifetime,
		Stdout:      stdout,
		Stderr:      stderr,
		Cost:        w.Cfg.Cost,
	})
	if err != nil {
		logf(LogSystem, "cannot start container: %v", err)
		return res
	}
	defer ctr.Destroy()
	res.elapsed += ctr.PullLatency

	cmdSub, err := w.Queue.Subscribe(ctx, CmdTopic(req.ID), CmdChannel, 64)
	if err != nil {
		logf(LogSystem, "cannot open command channel: %v", err)
		return res
	}
	defer cmdSub.Close()

	logf(LogSystem, "interactive session ready (image %s, lifetime %v)", w.Cfg.DefaultImage, w.Cfg.Lifetime)
	w.signalCmdDone(ctx, req.ID, 0) // ready marker

	idle := w.Cfg.SessionIdleTimeout
	if idle <= 0 {
		idle = 10 * time.Minute
	}
	ok := true
loop:
	for {
		select {
		case m, open := <-cmdSub.C():
			if !open {
				break loop
			}
			_ = cmdSub.Ack(ctx, m)
			var sc sessionCommand
			if err := json.Unmarshal(m.Body, &sc); err != nil {
				continue
			}
			if sc.Close || sc.Cmd == "exit" {
				logf(LogSystem, "session closed by client")
				break loop
			}
			logf(LogSystem, "$ %s", sc.Cmd)
			r, err := ctr.Exec(sc.Cmd)
			res.elapsed += r.Wall
			if r.RanInference {
				res.internalTimer = r.InternalTimer
				res.accuracy = r.Accuracy
			}
			if err != nil && (errors.Is(err, sandbox.ErrLifetimeExceeded) || errors.Is(err, sandbox.ErrMemoryExceeded)) {
				logf(LogSystem, "container killed: %v", err)
				w.signalCmdDone(ctx, req.ID, r.ExitCode)
				ok = false
				break loop
			}
			stdout.Flush()
			stderr.Flush()
			w.signalCmdDone(ctx, req.ID, r.ExitCode)
		case <-w.Clock.After(idle):
			logf(LogSystem, "session idle for %v; closing", idle)
			break loop
		}
	}
	stdout.Flush()
	stderr.Flush()
	res.ok = ok
	res.logBytes = stdout.Bytes() + stderr.Bytes()
	res.buildArchive = packBuild(ctr.FS(), logf)
	return res
}

// signalCmdDone publishes the per-command completion marker; the exit
// code travels in the numeric Elapsed field.
func (w *Worker) signalCmdDone(ctx context.Context, jobID string, exitCode int) {
	_, _ = w.Queue.Publish(ctx, LogTopic(jobID), encodeJSON(&LogMessage{
		JobID: jobID, Kind: LogCmdDone, Elapsed: float64(exitCode),
	}))
}
