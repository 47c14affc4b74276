package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/docstore"
	"rai/internal/objstore"
)

var metricsLine = regexp.MustCompile(`metrics on (http://[^/\s]+/metrics)`)

func TestMetricsAddrExposesWorkerTelemetry(t *testing.T) {
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { brokerSrv.Close(); b.Close() }()
	fsLn, _ := net.Listen("tcp", "127.0.0.1:0")
	fsSrv := &http.Server{Handler: objstore.Handler(objstore.New(), nil)}
	go fsSrv.Serve(fsLn)
	defer fsSrv.Close()
	dbLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dbSrv := &http.Server{Handler: docstore.Handler(docstore.New(), nil)}
	go dbSrv.Serve(dbLn)
	defer dbSrv.Close()

	creds := auth.NewCredentials("metrics-team")
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	blob, _ := json.Marshal([]auth.Credentials{creds})
	os.WriteFile(keysPath, blob, 0o600)

	ready := make(chan struct{})
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-broker", brokerSrv.Addr(),
			"-fs", "http://" + fsLn.Addr().String(),
			"-db", "http://" + dbLn.Addr().String(),
			"-keys", keysPath,
			"-full-images", "12",
			"-metrics-addr", "127.0.0.1:0",
		}, &out, &errb, ready, quit)
	}()
	defer func() {
		close(quit)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not stop")
		}
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("worker never ready: %s", errb.String())
	}

	m := metricsLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no metrics address announced:\n%s", out.String())
	}
	// The worker registers its instruments one by one when Run starts;
	// poll briefly for the last of them.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get(m[1])
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(raw)
		if strings.Contains(body, "rai_worker_jobs_in_flight") && strings.Contains(body, "rai_worker_jobs_total") {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{
		"rai_worker_jobs_in_flight 0",
		"# TYPE rai_queue_delay_seconds histogram",
		`rai_worker_jobs_total{status="succeeded"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
