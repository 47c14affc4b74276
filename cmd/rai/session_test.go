package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/vfs"
)

// sessionServices is like services() but with a session-enabled worker.
func sessionServices(t *testing.T) (brokerAddr, fsURL string, creds auth.Credentials) {
	t.Helper()
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brokerSrv.Close(); b.Close() })
	store := objstore.New()
	fsLn, _ := net.Listen("tcp", "127.0.0.1:0")
	fsSrv := &http.Server{Handler: objstore.Handler(store, nil)}
	go fsSrv.Serve(fsLn)
	t.Cleanup(func() { fsSrv.Close() })

	reg := auth.NewRegistry()
	creds, err = reg.Issue("session-team")
	if err != nil {
		t.Fatal(err)
	}
	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, _ := nw.SaveModel()
	dataFS.WriteFile("/data/model.hdf5", model)
	ds, _ := cnn.SynthesizeDataset(nw, 9, 10)
	blob, _ := ds.Encode()
	dataFS.WriteFile("/data/test10.hdf5", blob)

	queue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { queue.Close() })
	w := &core.Worker{
		Cfg: core.WorkerConfig{
			ID: "session-worker", MaxConcurrent: 1, RateLimit: time.Nanosecond,
			AllowSessions: true, SessionIdleTimeout: time.Minute,
		},
		Queue:    queue,
		Objects:  objstore.NewClient("http://" + fsLn.Addr().String()),
		DB:       docstore.New(),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	go w.Run(context.Background())
	t.Cleanup(w.Stop)
	return brokerSrv.Addr(), "http://" + fsLn.Addr().String(), creds
}

func TestRaiSessionCLI(t *testing.T) {
	brokerAddr, fsURL, creds := sessionServices(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "session-team"})

	stdin := strings.NewReader("cmake /src\nmake\n./ece408 /data/test10.hdf5 /data/model.hdf5\nexit\n")
	var out, errb bytes.Buffer
	code := session(context.Background(), creds, dir, brokerAddr, fsURL, time.Minute, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("session exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{
		"interactive session open",
		"Built target ece408",
		"Correctness: 1.0000",
		"session build output:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRaiSessionCLICommandFailureShowsExit(t *testing.T) {
	brokerAddr, fsURL, creds := sessionServices(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "session-team"})
	stdin := strings.NewReader("cat /missing/file\nexit\n")
	var out, errb bytes.Buffer
	if code := session(context.Background(), creds, dir, brokerAddr, fsURL, time.Minute, stdin, &out, &errb); code != 0 {
		t.Fatalf("session exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "(exit 1)") {
		t.Errorf("missing exit marker:\n%s", out.String())
	}
}
