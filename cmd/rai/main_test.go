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
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/vfs"
)

// services starts a loopback broker/fs/db plus a worker and returns the
// endpoints and team credentials.
func services(t *testing.T) (brokerAddr, fsURL, dbURL string, creds auth.Credentials) {
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

	db := docstore.New()
	dbLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dbSrv := &http.Server{Handler: docstore.Handler(db, nil)}
	go dbSrv.Serve(dbLn)
	t.Cleanup(func() { dbSrv.Close() })

	reg := auth.NewRegistry()
	creds, err = reg.Issue("cli-team")
	if err != nil {
		t.Fatal(err)
	}

	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, _ := nw.SaveModel()
	dataFS.WriteFile("/data/model.hdf5", model)
	ds, _ := cnn.SynthesizeDataset(nw, 409, 10)
	blob, _ := ds.Encode()
	dataFS.WriteFile("/data/test10.hdf5", blob)
	full, _ := cnn.SynthesizeDataset(nw, 410, 15)
	blob, _ = full.Encode()
	dataFS.WriteFile("/data/testfull.hdf5", blob)

	queue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { queue.Close() })
	w := &core.Worker{
		Cfg:      core.WorkerConfig{ID: "test-worker", MaxConcurrent: 2, RateLimit: time.Nanosecond},
		Queue:    queue,
		Objects:  objstore.NewClient("http://" + fsLn.Addr().String()),
		DB:       docstore.NewClient("http://" + dbLn.Addr().String()),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	go w.Run(context.Background())
	t.Cleanup(w.Stop)

	return brokerSrv.Addr(), "http://" + fsLn.Addr().String(), "http://" + dbLn.Addr().String(), creds
}

// writeProject materializes a student project on disk.
func writeProject(t *testing.T, spec project.Spec) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range project.Files(spec) {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeProfile(t *testing.T, creds auth.Credentials) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), ".rai.profile")
	if err := os.WriteFile(p, []byte(auth.FormatProfile(creds)), 0o600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRaiVersion(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"version"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "rai 0.2.0-dev") {
		t.Errorf("version output = %q", out.String())
	}
}

func TestRaiRunEndToEnd(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "cli-team"})
	profile := writeProfile(t, creds)

	var out, errb bytes.Buffer
	code := run([]string{
		"-p", dir, "-profile", profile,
		"-broker", brokerAddr, "-fs", fsURL, "-db", dbURL,
		"-timeout", "60s",
		"run",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("rai run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"Building project", "Correctness: 1.0000", "succeeded", "build output:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRaiSubmitAndRanking(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{
		Impl: cnn.ImplParallel, Tuning: 1, Team: "cli-team", WithUsage: true, WithReport: true,
	})
	profile := writeProfile(t, creds)
	common := []string{"-p", dir, "-profile", profile, "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "-timeout", "60s"}

	var out, errb bytes.Buffer
	if code := run(append(common, "submit"), &out, &errb); code != 0 {
		t.Fatalf("rai submit exited %d\n%s\n%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run(append(common, "ranking"), &out, &errb); code != 0 {
		t.Fatalf("rai ranking exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cli-team (you)") || !strings.Contains(out.String(), "ranked 1 of 1") {
		t.Errorf("ranking output:\n%s", out.String())
	}
}

func TestRaiSubmitRequiresReport(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplParallel, Team: "cli-team"}) // no USAGE/report.pdf
	profile := writeProfile(t, creds)
	var out, errb bytes.Buffer
	code := run([]string{"-p", dir, "-profile", profile, "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "submit"}, &out, &errb)
	if code == 0 {
		t.Fatal("submit without report.pdf succeeded")
	}
	if !strings.Contains(errb.String(), "USAGE") && !strings.Contains(errb.String(), "report.pdf") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestRaiMissingProfile(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-profile", "/nonexistent/.rai.profile", "run"}, &out, &errb)
	if code == 0 {
		t.Fatal("missing profile accepted")
	}
	if !strings.Contains(errb.String(), ".rai.profile") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestRaiBadCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code == 0 {
		t.Fatal("unknown command accepted")
	}
	if code := run(nil, &out, &errb); code == 0 {
		t.Fatal("no command accepted")
	}
}

// TestKeysJSONRoundTrip verifies the keygen file format the daemons load.
func TestKeysJSONRoundTrip(t *testing.T) {
	creds := []auth.Credentials{auth.NewCredentials("a"), auth.NewCredentials("b")}
	blob, err := json.Marshal(creds)
	if err != nil {
		t.Fatal(err)
	}
	var back []auth.Credentials
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back[0] != creds[0] || back[1] != creds[1] {
		t.Error("keys.json round trip mismatch")
	}
}
