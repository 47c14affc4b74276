package core

import (
	"context"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/build"
	"rai/internal/cnn"
	"rai/internal/netx"
	"rai/internal/project"
	"rai/internal/telemetry"
)

// TestRemoteQueueEndToEnd runs the whole client/worker protocol through
// the TCP queue (brokerd.Queue) instead of the in-process engine.
func TestRemoteQueueEndToEnd(t *testing.T) {
	e := newEnv(t)
	b := broker.New()
	srv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })

	workerQueue, err := brokerd.NewQueue(context.Background(), srv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workerQueue.Close() })
	e.worker.Queue = workerQueue
	e.worker.Cfg.RateLimit = 0
	go e.worker.Run(context.Background())
	t.Cleanup(e.worker.Stop)

	clientQueue, err := brokerd.NewQueue(context.Background(), srv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientQueue.Close() })
	c := e.client(t, "team-tcp")
	c.Queue = clientQueue
	c.LogWait = 0 // real-time delivery; no virtual-clock timer

	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-tcp"})
	res, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.Accuracy != 1.0 {
		t.Fatalf("res = %+v", res)
	}
}

// TestSubmissionSurvivesBrokerRestart is the PR's end-to-end acceptance
// check: with the broker down, a student submission started during the
// outage still completes once the broker comes back — the client's
// publish/subscribe and the worker's task subscription all ride the
// reconnecting queue instead of failing.
func TestSubmissionSurvivesBrokerRestart(t *testing.T) {
	e := newEnv(t)
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	srv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	reg := telemetry.NewRegistry()
	p := netx.Policy{MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
		Metrics: netx.NewMetrics(reg, "broker")}
	workerQueue, err := brokerd.NewQueue(context.Background(), addr, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workerQueue.Close() })
	e.worker.Queue = workerQueue
	e.worker.Cfg.RateLimit = 0
	go e.worker.Run(context.Background())
	t.Cleanup(e.worker.Stop)

	clientQueue, err := brokerd.NewQueue(context.Background(), addr, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientQueue.Close() })
	c := e.client(t, "team-outage")
	c.Queue = clientQueue
	c.LogWait = 0 // real-time delivery; no virtual-clock timer

	// One clean submission first, so the worker's task subscription and
	// both publish connections exist before the restart kills them all.
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-outage"})
	res, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
	if err != nil {
		t.Fatalf("submission before restart: %v", err)
	}
	if res.Status != StatusSucceeded {
		t.Fatalf("status before restart = %q", res.Status)
	}

	// Step past the per-user rate limit, then kill the broker and bring
	// it back on the same address over the same engine while the next
	// submission is already underway.
	e.clock.Advance(time.Minute)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	type restart struct {
		srv *brokerd.Server
		err error
	}
	restarted := make(chan restart, 1)
	go func() {
		time.Sleep(25 * time.Millisecond)
		srv2, err := brokerd.NewServer(context.Background(), b, addr)
		restarted <- restart{srv2, err}
	}()

	res2, err := c.Submit(context.Background(), KindRun, build.Default(), proj.m, proj.src)
	r := <-restarted
	if r.err != nil {
		t.Fatalf("broker restart: %v", r.err)
	}
	t.Cleanup(func() { r.srv.Close() })
	if err != nil {
		t.Fatalf("submission across restart: %v", err)
	}
	if res2.Status != StatusSucceeded || res2.Accuracy != 1.0 {
		t.Fatalf("res = %+v", res2)
	}
	if v, _ := reg.Value(netx.MetricReconnects, telemetry.L("component", "broker")); v < 1 {
		t.Errorf("reconnects counter = %v, want >= 1", v)
	}
}

// TestResubmitReusesUpload is the grading rerun path: the same stored
// archive is executed again without re-uploading.
func TestResubmitReusesUpload(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-rerun")
	proj := newProject(t, project.Spec{
		Impl: cnn.ImplParallel, Tuning: 1, Team: "team-rerun", WithUsage: true, WithReport: true,
	})
	first, err := submitAndHandle(t, e, c, KindSubmit, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the stored upload from the job record.
	job, err := e.db.FindOne(context.Background(), CollJobs, map[string]any{"job_id": first.JobID})
	if err != nil {
		t.Fatal(err)
	}
	bucket, _ := job["upload_bucket"].(string)
	key, _ := job["upload_key"].(string)
	if bucket == "" || key == "" {
		t.Fatalf("job doc lacks upload location: %v", job)
	}
	rec := &recordingObjects{Objects: c.Objects}
	c.Objects = rec

	e.clock.Advance(time.Minute)
	type out struct {
		res *JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Resubmit(context.Background(), KindSubmit, bucket, key)
		done <- out{res, err}
	}()
	if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Status != StatusSucceeded {
		t.Fatalf("rerun status = %q", o.res.Status)
	}
	if o.res.InternalTimer != first.InternalTimer {
		t.Errorf("rerun timer %v != original %v (same archive, same model)", o.res.InternalTimer, first.InternalTimer)
	}
	// No new upload was made.
	if calls, _ := rec.take(); len(calls) != 0 {
		t.Errorf("resubmit called the file server with %v; want no upload", calls)
	}
}

func TestResubmitBadKind(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-badkind")
	if _, err := c.Resubmit(context.Background(), "frobnicate", BucketUploads, "x"); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestDownloadBuildWithoutArtifact(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-noartifact")
	if _, err := c.DownloadBuild(context.Background(), &JobResult{JobID: "x"}); err == nil {
		t.Fatal("download without artifact accepted")
	}
}
