package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

func insertEvent(t *testing.T, db *docstore.Client, jobID, msg string, tsS float64) {
	t.Helper()
	ts := time.Unix(int64(tsS), 0).UTC().Format(time.RFC3339Nano)
	if _, err := db.Insert(core.CollEvents, docstore.M{
		"job_id": jobID, "msg": msg, "level": "info", "service": "test",
		"ts": ts, "ts_s": tsS,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLogsPrintsEvents(t *testing.T) {
	srv := httptest.NewServer(docstore.HandlerStore(docstore.New(), nil))
	defer srv.Close()
	db := docstore.NewClient(srv.URL)
	insertEvent(t, db, "job-1", "container started", 100)
	insertEvent(t, db, "job-2", "other job noise", 101)

	var out, errb bytes.Buffer
	if code := logsCmd([]string{"-db", srv.URL, "job-1"}, &out, &errb); code != 0 {
		t.Fatalf("logs exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "container started") {
		t.Errorf("output missing event:\n%s", out.String())
	}
	if strings.Contains(out.String(), "other job noise") {
		t.Errorf("output leaked another job's events:\n%s", out.String())
	}
}

// TestLogsWatchNegotiation exercises the -follow fast path: the watch
// stream opens against a capable server and delivers a notification per
// events-collection insert.
func TestLogsWatchNegotiation(t *testing.T) {
	srv := httptest.NewServer(docstore.HandlerStore(docstore.New(), nil))
	defer srv.Close()
	db := docstore.NewClient(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := openEventWatch(ctx, db)
	if ch == nil {
		t.Fatal("openEventWatch returned nil against a watch-capable server")
	}
	insertEvent(t, db, "job-w", "woke the follower", 200)
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed before delivering")
		}
		if ev.Coll != core.CollEvents || ev.Op != "insert" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no watch notification within 5s")
	}
	// Extra queued notifications collapse into one reprint.
	insertEvent(t, db, "job-w", "a", 201)
	insertEvent(t, db, "job-w", "b", 202)
	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed early")
			}
			got++
		case <-deadline:
			t.Fatal("burst notifications never arrived")
		}
	}
	drainWatch(ch)
	cancel()
	select {
	case <-func() chan struct{} {
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		return done
	}():
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel did not close after cancel")
	}
}

// TestLogsWatchFallback: a server without watch support (or without the
// endpoints at all) yields a nil channel, sending -follow down the
// polling path.
func TestLogsWatchFallback(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if ch := openEventWatch(context.Background(), docstore.NewClient(srv.URL)); ch != nil {
		t.Fatal("expected nil watch channel from a watchless server")
	}
}

// TestCollectExportsSLOGauges pins the -slo-scrape wiring: collect,
// started against a live broker and database, scrapes the deployment's
// metrics endpoint, judges it with the SLO engine and serves the verdict
// as rai_slo_* gauges on its own /metrics — then stops cleanly.
func TestCollectExportsSLOGauges(t *testing.T) {
	b := broker.New()
	defer b.Close()
	brokerSrv, err := brokerd.NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brokerSrv.Close()
	dbSrv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer dbSrv.Close()
	// A deployment failing half its jobs, and still at it: the engine
	// judges growth between scrapes, so the counters must move.
	var scrapes atomic.Int64
	deployment := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := scrapes.Add(1) * 50
		fmt.Fprintf(w, "rai_worker_jobs_total{status=\"succeeded\"} %d\nrai_worker_jobs_total{status=\"failed\"} %d\n", n, n)
	}))
	defer deployment.Close()

	readyPath := filepath.Join(t.TempDir(), "collect.ready")
	quit := make(chan struct{})
	exit := make(chan int, 1)
	var out, errb bytes.Buffer
	go func() {
		exit <- collect([]string{
			"-broker", brokerSrv.Addr(), "-db", dbSrv.URL,
			"-metrics-addr", "127.0.0.1:0", "-ready-file", readyPath,
			"-slo-scrape", deployment.URL + "/metrics", "-slo-interval", "10ms",
		}, &out, &errb, quit)
	}()

	// The breached deployment must show up as an unhealthy objective on
	// the collector's own endpoint once a scrape has gone through.
	unhealthy := func() bool {
		info, err := readyfile.Read(readyPath)
		if err != nil {
			return false
		}
		snap, err := scrapeMetrics("http://" + info.MetricsAddr + "/metrics")
		if err != nil {
			return false
		}
		v, ok := snap.Value("rai_slo_healthy", telemetry.L("objective", "worker-availability"))
		return ok && v == 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for !unhealthy() {
		select {
		case code := <-exit:
			t.Fatalf("collect exited %d before serving\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no rai_slo_healthy{objective=worker-availability} 0 on the collector's /metrics")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(quit)
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("collect exited %d, want 0\nstderr: %s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collect did not stop")
	}
}
