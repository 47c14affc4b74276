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
	jobID := c.newJobID()
	uploadKey, _, err := c.uploadProject(ctx, jobID, m, src)
	if err != nil {
		return nil, fmt.Errorf("core: uploading project: %w", err)
	}
	req := &JobRequest{
		ID: jobID, User: c.Creds.UserName, AccessKey: c.Creds.AccessKey,
		Kind: KindSession, UploadBucket: BucketUploads, UploadKey: uploadKey,
		SubmittedAt: clk.Now(),
	}
	req.Token = authToken(c, req)
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
	if _, err := s.waitCmdDone(""); err != nil {
		s.Close()
		return nil, err
	}
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
			case LogOutput:
				text, _ := lm.appendText(nil)
				res.Output += string(text)
				if s.client.Stdout != nil {
					_, _ = s.client.Stdout.Write(text)
				}
			case LogCmdDone:
				res.ExitCode = int(lm.Elapsed) // exit code rides the numeric field
				return res, nil
			case LogEnd:
				s.closed = true
				s.Result = &JobResult{JobID: s.JobID}
				if err := s.Result.settle(&lm); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w (status %s)", ErrSessionClosed, lm.Status)
			}
		case <-timeout:
			return nil, fmt.Errorf("core: session %s: timed out waiting for command completion", s.JobID)
		}
	}
}

// Close ends the session: the worker uploads /build and sends End,
// which populates Result.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	_, _ = s.client.Queue.Publish(s.base, CmdTopic(s.JobID), encodeJSON(&sessionCommand{JobID: s.JobID, Close: true}))
	for !s.closed {
		if _, err := s.waitCmdDone(""); err != nil && !s.closed {
			break // timed out: there is no End to wait for
		}
	}
	s.closed = true
	return s.sub.Close()
}

// ---- worker side ----

// session is an interactive job's one command stage: the loop that runs
// the client's commands in the started container, bounded by the
// container lifetime and an idle timeout. Each command is echoed and
// answered with a cmd_done marker carrying its exit code; the first,
// empty marker tells the client the session is ready.
func (w *Worker) session(ctx context.Context, j *job) error {
	cmds, err := w.Queue.Subscribe(ctx, CmdTopic(j.req.ID), CmdChannel, 64)
	if err != nil {
		return fmt.Errorf("cannot open command channel: %w", err)
	}
	defer cmds.Close()
	j.log.systemf("interactive session ready (image %s, lifetime %v)", w.Cfg.DefaultImage, w.Cfg.Lifetime)
	j.log.send(&LogMessage{Kind: LogCmdDone})
	idle := w.Cfg.SessionIdleTimeout
	if idle <= 0 {
		idle = 10 * time.Minute
	}
	for {
		select {
		case m, open := <-cmds.C():
			if !open {
				return nil
			}
			_ = cmds.Ack(ctx, m)
			var sc sessionCommand
			if err := json.Unmarshal(m.Body, &sc); err != nil {
				continue
			}
			if sc.Close || sc.Cmd == "exit" {
				j.log.systemf("session closed by client")
				return nil
			}
			r, err := w.exec(ctx, j, sc.Cmd)
			// The exit code travels in the numeric Elapsed field.
			j.log.send(&LogMessage{Kind: LogCmdDone, Elapsed: float64(r.ExitCode)})
			if killed(err) {
				return err // the session dies with its container
			}
		case <-w.Clock.After(idle):
			j.log.systemf("session idle for %v; closing", idle)
			return nil
		}
	}
}
