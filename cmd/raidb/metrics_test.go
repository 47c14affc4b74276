package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"rai/internal/docstore"
)

var metricsLine = regexp.MustCompile(`metrics on (http://[^/\s]+/metrics)`)

func TestMetricsAddrExposesDBTelemetry(t *testing.T) {
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, &out, &errb, ready, quit)
	}()
	defer func() {
		close(quit)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop")
		}
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never ready: %s", errb.String())
	}

	c := docstore.NewClient("http://" + addr)
	if _, err := c.Insert(context.Background(), "jobs", docstore.M{"job_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Find(context.Background(), "jobs", docstore.M{"job_id": "j1"}, docstore.FindOpts{}); err != nil {
		t.Fatal(err)
	}

	m := metricsLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no metrics address announced:\n%s", out.String())
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`rai_docstore_requests_total{verb="insert"} 1`,
		`rai_docstore_requests_total{verb="find"} 1`,
		"rai_docstore_requests_in_flight 0",
		`rai_docstore_request_seconds_count{verb="insert"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
