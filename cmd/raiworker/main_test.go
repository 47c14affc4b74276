package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/daemon"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/sim"
)

func TestWorkerDaemonProcessesJobs(t *testing.T) {
	// Services on loopback.
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { brokerSrv.Close(); b.Close() }()
	store := objstore.New()
	fsLn, _ := net.Listen("tcp", "127.0.0.1:0")
	fsSrv := &http.Server{Handler: objstore.Handler(store, nil)}
	go fsSrv.Serve(fsLn)
	defer fsSrv.Close()
	db := docstore.New()
	dbLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dbSrv := &http.Server{Handler: docstore.Handler(db)}
	go dbSrv.Serve(dbLn)
	defer dbSrv.Close()

	creds := auth.NewCredentials("daemon-team")
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	blob, _ := json.Marshal([]auth.Credentials{creds})
	os.WriteFile(keysPath, blob, 0o600)

	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-broker", brokerSrv.Addr(),
			"-fs", "http://" + fsLn.Addr().String(),
			"-db", "http://" + dbLn.Addr().String(),
			"-keys", keysPath,
			"-id", "daemon-worker",
			"-rate-limit", "1ns",
			"-full-images", "12",
		}, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("worker never ready: %s", errb.String())
	}

	// A client submits through the daemon.
	queue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer queue.Close()
	m, src, err := sim.ProjectManifest(project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "daemon-team"})
	if err != nil {
		t.Fatal(err)
	}
	client := &core.Client{
		Creds: creds, Queue: queue,
		Objects: objstore.NewClient("http://" + fsLn.Addr().String()),
		LogWait: time.Minute,
	}
	res, err := client.Submit(context.Background(), core.KindRun, nil, m, src)
	if err != nil {
		t.Fatalf("submit through daemon: %v", err)
	}
	if res.Status != core.StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
	// The job record names this worker.
	doc, err := db.FindOne(context.Background(), core.CollJobs, docstore.M{"job_id": res.JobID})
	if err != nil || doc["worker"] != "daemon-worker" {
		t.Fatalf("job doc = %v, %v", doc, err)
	}

	close(quit)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
	if !strings.Contains(out.String(), "handled 1 jobs") {
		t.Errorf("shutdown summary: %q", out.String())
	}
}

func TestWorkerRequiresKeys(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb, daemon.Hooks{}); code != 2 {
		t.Fatalf("exit = %d", code)
	}
	if code := run([]string{"-keys", "/nope.json"}, &out, &errb, daemon.Hooks{}); code != 1 {
		t.Fatalf("missing keys file exit = %d", code)
	}
}
