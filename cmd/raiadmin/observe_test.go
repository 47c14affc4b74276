package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
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
	if _, err := db.Insert(context.Background(), core.CollEvents, docstore.M{
		"job_id": jobID, "msg": msg, "level": "info", "service": "test",
		"ts": ts, "ts_s": tsS,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLogsPrintsEvents(t *testing.T) {
	srv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer srv.Close()
	db := docstore.NewClient(srv.URL)
	insertEvent(t, db, "job-1", "container started", 100)
	insertEvent(t, db, "job-2", "other job noise", 101)

	var out, errb bytes.Buffer
	if code := logsCmd(context.Background(), []string{"-db", srv.URL, "job-1"}, &out, &errb); code != 0 {
		t.Fatalf("logs exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "container started") {
		t.Errorf("output missing event:\n%s", out.String())
	}
	if strings.Contains(out.String(), "other job noise") {
		t.Errorf("output leaked another job's events:\n%s", out.String())
	}
}

// lockedBuffer is a bytes.Buffer a followed command can write while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// followUntilPrinted runs `logs -follow` against url and keeps inserting
// events for the job until one of them shows up on stdout (the first
// inserts can race the command's own startup), then interrupts it and
// expects a clean exit.
func followUntilPrinted(t *testing.T, url string, db *docstore.Client, interval string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- logsCmd(ctx, []string{"-db", url, "-follow", "-interval", interval, "job-f"}, &out, &errb)
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; !strings.Contains(out.String(), "late event"); i++ {
		insertEvent(t, db, "job-f", fmt.Sprintf("late event %d", i), float64(300+i))
		select {
		case code := <-exit:
			t.Fatalf("logs -follow exited %d early: %s", code, errb.String())
		case <-deadline:
			t.Fatalf("no followed event printed\nstdout: %s\nstderr: %s", out.String(), errb.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("logs -follow exited %d after interrupt: %s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("logs -follow did not stop on interrupt")
	}
}

// TestLogsWatchNegotiation exercises the -follow fast path: with the
// poll interval far beyond the test's patience, only the watch stream
// can have woken the cursor.
func TestLogsWatchNegotiation(t *testing.T) {
	srv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer srv.Close()
	followUntilPrinted(t, srv.URL, docstore.NewClient(srv.URL), "1h")
}

// TestLogsWatchFallback: against a server whose /w/ is missing (404) or
// unsupported (501) Watch errors, and -follow still prints by polling.
func TestLogsWatchFallback(t *testing.T) {
	for _, status := range []int{http.StatusNotFound, http.StatusNotImplemented} {
		t.Run(http.StatusText(status), func(t *testing.T) {
			db := docstore.Handler(docstore.New(), nil)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/w/") {
					http.Error(w, "no stream here", status)
					return
				}
				db.ServeHTTP(w, r)
			}))
			defer srv.Close()
			followUntilPrinted(t, srv.URL, docstore.NewClient(srv.URL), "10ms")
		})
	}
}

// TestCollectExportsSLOGauges pins the -slo-scrape wiring: collect,
// started against a live broker and database, scrapes the deployment's
// metrics endpoint, judges it with the SLO engine and serves the verdict
// as rai_slo_* gauges on its own /metrics — then stops cleanly.
func TestCollectExportsSLOGauges(t *testing.T) {
	b := broker.New()
	defer b.Close()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
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
