package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/vfs"
)

// openSession starts a session against a worker goroutine and returns
// it with the worker running.
func openSession(t *testing.T, e *env, team string) (*Session, *Client) {
	t.Helper()
	e.worker.Cfg.AllowSessions = true
	e.worker.Cfg.RateLimit = 0
	e.worker.Cfg.SessionIdleTimeout = time.Hour
	go e.worker.Run(context.Background())
	t.Cleanup(e.worker.Stop)

	c := e.client(t, team)
	c.LogWait = 20 * time.Second
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: team})
	s, err := c.OpenSession(context.Background(), proj.m, proj.src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, c
}

func TestInteractiveSessionStatePersists(t *testing.T) {
	e := newEnv(t)
	s, _ := openSession(t, e, "team-interactive")

	// The whole point of a session: state carries between commands —
	// cmake writes the Makefile one round trip before make consumes it.
	res, err := s.Run(context.Background(), "cmake /src")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 || !strings.Contains(res.Output, "Configuring done") {
		t.Fatalf("cmake = %+v", res)
	}
	res, err = s.Run(context.Background(), "make")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "Built target ece408") {
		t.Fatalf("make = %+v", res)
	}
	res, err = s.Run(context.Background(), "./ece408 /data/test10.hdf5 /data/model.hdf5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "Correctness: 1.0000") {
		t.Fatalf("run = %+v", res)
	}
	// Debugging tools work interactively too (the §VIII motivation).
	res, err = s.Run(context.Background(), "nvprof --export-profile session.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "Generated result file") {
		t.Fatalf("nvprof = %+v", res)
	}
	// Failed commands report their exit code without ending the session.
	res, err = s.Run(context.Background(), "cat /no/such/file")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode == 0 {
		t.Error("failed command reported exit 0")
	}
	if _, err := s.Run(context.Background(), "echo still alive"); err != nil {
		t.Fatalf("session died after failed command: %v", err)
	}
}

// TestSessionCloseUploadsBuild is the session end to end over a
// manifest upload: /src holds exactly the uploaded tree, and closing
// publishes /build.
func TestSessionCloseUploadsBuild(t *testing.T) {
	e := newEnv(t)
	s, c := openSession(t, e, "team-close")
	for path, want := range project.Files(project.Spec{Impl: cnn.ImplIm2col, Team: "team-close"}) {
		cmd := "cat /src/" + path
		res, err := s.Run(context.Background(), cmd)
		if err != nil {
			t.Fatal(err)
		}
		// The worker echoes the command before its output.
		want = "$ " + cmd + "\n" + want
		if res.ExitCode != 0 || strings.TrimRight(res.Output, "\n") != strings.TrimRight(want, "\n") {
			t.Errorf("/src/%s differs from the uploaded tree (exit %d, %d vs %d bytes)", path, res.ExitCode, len(res.Output), len(want))
		}
	}
	if _, err := s.Run(context.Background(), "cmake /src"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "make"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Result == nil || s.Result.Status != StatusSucceeded {
		t.Fatalf("session result = %+v", s.Result)
	}
	// The session's /build (with the compiled target) is downloadable,
	// and is still a .tar.bz2 — only uploads are manifests.
	blob, err := c.DownloadBuildContext(context.Background(), &JobResult{JobID: s.JobID, BuildBucket: s.Result.BuildBucket, BuildKey: s.Result.BuildKey})
	if err != nil || len(blob) == 0 {
		t.Fatalf("build download: %d bytes, %v", len(blob), err)
	}
	buildFS := vfs.New()
	if err := archivex.UnpackVFS(blob, buildFS, "/b", archivex.Limits{}); err != nil {
		t.Fatalf("/build artifact is not a .tar.bz2: %v", err)
	}
	if !strings.HasSuffix(s.Result.BuildKey, "build.tar.bz2") || !buildFS.Exists("/b/ece408") {
		t.Errorf("build artifact %s lacks the compiled target", s.Result.BuildKey)
	}
	// Using a closed session errors cleanly.
	if _, err := s.Run(context.Background(), "echo nope"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("run after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSessionLimitsStillEnforced(t *testing.T) {
	e := newEnv(t)
	s, _ := openSession(t, e, "team-escape")
	// Network is still off.
	res, err := s.Run(context.Background(), "curl http://example.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode == 0 || !strings.Contains(res.Output, "Network is unreachable") {
		t.Fatalf("curl in session = %+v", res)
	}
	// /src is still read-only (cp into it must fail).
	res, err = s.Run(context.Background(), "cp /src/CMakeLists.txt /src/copy.txt")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode == 0 {
		t.Error("write into read-only /src succeeded")
	}
}

func TestSessionRejectedWhenDisabled(t *testing.T) {
	e := newEnv(t)
	// Worker without AllowSessions.
	go e.worker.Run(context.Background())
	t.Cleanup(e.worker.Stop)
	c := e.client(t, "team-nosess")
	c.LogWait = 10 * time.Second
	proj := newProject(t, project.Spec{Impl: cnn.ImplTiled, Team: "team-nosess"})
	_, err := c.OpenSession(context.Background(), proj.m, proj.src)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("session on non-session worker: %v", err)
	}
}

func TestSessionEndsOnExitCommand(t *testing.T) {
	e := newEnv(t)
	s, _ := openSession(t, e, "team-exit")
	if _, err := s.Run(context.Background(), "echo hi"); err != nil {
		t.Fatal(err)
	}
	// "exit" ends the session; the pending waitCmdDone sees End.
	_, err := s.Run(context.Background(), "exit")
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("exit command: %v", err)
	}
	if s.Result == nil || s.Result.Status != StatusSucceeded {
		t.Fatalf("result after exit = %+v", s.Result)
	}
}

func TestSessionRecordedInDatabase(t *testing.T) {
	e := newEnv(t)
	s, _ := openSession(t, e, "team-audit")
	s.Run(context.Background(), "echo audited")
	s.Close()
	doc, err := e.db.FindOne(context.Background(), CollJobs, map[string]any{"job_id": s.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if doc["kind"] != KindSession || doc["status"] != StatusSucceeded {
		t.Fatalf("session job doc = %v", doc)
	}
}
