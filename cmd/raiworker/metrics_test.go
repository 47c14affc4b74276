package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/daemon"
	"rai/internal/daemon/daemontest"
	"rai/internal/docstore"
	"rai/internal/objstore"
)

var metricsLine = regexp.MustCompile(`metrics on (http://[^/\s]+/metrics)`)

// services starts a broker, a file server and a database on loopback
// and a keys file, and returns the flags that point a worker at them.
func services(t *testing.T) []string {
	t.Helper()
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brokerSrv.Close(); b.Close() })
	fsSrv := httptest.NewServer(objstore.Handler(objstore.New(), nil))
	t.Cleanup(fsSrv.Close)
	dbSrv := httptest.NewServer(docstore.Handler(docstore.New()))
	t.Cleanup(dbSrv.Close)
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	reg := auth.NewRegistry()
	if _, err := reg.Issue("metrics-team"); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteKeys(keysPath); err != nil {
		t.Fatal(err)
	}
	return []string{"-broker", brokerSrv.Addr(), "-fs", fsSrv.URL, "-db", dbSrv.URL, "-keys", keysPath, "-full-images", "12"}
}

func TestLifecycle(t *testing.T) {
	daemontest.Check(t, daemontest.Case{Service: "raiworker", Run: run, Args: services(t)})
}

func TestMetricsAddrExposesWorkerTelemetry(t *testing.T) {
	args := append(services(t), "-metrics-addr", "127.0.0.1:0")
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(args, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
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
