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

	"rai/internal/brokerd"
	"rai/internal/daemon"
	"rai/internal/netx"
)

var metricsLine = regexp.MustCompile(`metrics on (http://[^/\s]+/metrics)`)

func scrapeMetrics(t *testing.T, out *bytes.Buffer) string {
	t.Helper()
	m := metricsLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no metrics address announced:\n%s", out.String())
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", m[1], resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsAddrExposesBrokerTelemetry(t *testing.T) {
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
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

	c, err := brokerd.NewQueue(context.Background(), addr, netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Publish(context.Background(), "rai", []byte("job")); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, &out)
	for _, want := range []string{
		`rai_broker_publish_total{topic="rai"} 1`,
		`rai_brokerd_ops_total{op="PUB"} 1`,
		`rai_broker_queue_depth{channel="tasks",topic="rai"}`,
		"rai_brokerd_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
