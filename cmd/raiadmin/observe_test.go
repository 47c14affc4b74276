package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
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
	"rai/internal/daemon"
	"rai/internal/daemon/daemontest"
	"rai/internal/docstore"
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
	srv := httptest.NewServer(docstore.Handler(docstore.New()))
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

// TestLogsFollowPolls runs `logs -follow` and keeps inserting events for
// the job until one of them shows up on stdout, which only a poll after
// the command's first print can find; then it interrupts the command
// and expects a clean exit.
func TestLogsFollowPolls(t *testing.T) {
	srv := httptest.NewServer(docstore.Handler(docstore.New()))
	defer srv.Close()
	url, db, interval := srv.URL, docstore.NewClient(srv.URL), "10ms"
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

// TestCollectLifecycle runs collect through the daemons' shared
// lifecycle check; its -version stamp is raiadmin's.
func TestCollectLifecycle(t *testing.T) {
	b := broker.New()
	defer b.Close()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brokerSrv.Close()
	dbSrv := httptest.NewServer(docstore.Handler(docstore.New()))
	defer dbSrv.Close()
	daemontest.Check(t, daemontest.Case{
		Service: "raiadmin-collect",
		Stamp:   "raiadmin",
		Run: func(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
			if len(args) == 1 && args[0] == "-version" {
				return run(args, stdout, stderr)
			}
			return collect(args, stdout, stderr, hooks)
		},
		Args: []string{"-broker", brokerSrv.Addr(), "-db", dbSrv.URL},
	})
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
	dbSrv := httptest.NewServer(docstore.Handler(docstore.New()))
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
		}, &out, &errb, daemon.Hooks{Quit: quit})
	}()

	// The breached deployment must show up as an unhealthy objective on
	// the collector's own endpoint once a scrape has gone through.
	unhealthy := func() bool {
		info, err := daemon.ReadInfo(readyPath)
		if err != nil {
			return false
		}
		snap, err := telemetry.Scrape(context.Background(), "http://"+info.MetricsAddr+"/metrics")
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

// insertSpan persists one span document the way the collector does.
func insertSpan(t *testing.T, db *docstore.Client, traceID, spanID, parentID, name, service string, start, end time.Time) {
	t.Helper()
	if _, err := db.Insert(context.Background(), core.CollTraces, docstore.M{
		"trace_id": traceID, "span_id": spanID, "parent_id": parentID,
		"name": name, "service": service,
		"start": start.UTC().Format(time.RFC3339Nano), "end": end.UTC().Format(time.RFC3339Nano),
		"start_s": float64(start.Unix()), "duration_s": end.Sub(start).Seconds(),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSlowest(t *testing.T) {
	// -slowest renders the trace whose root lasted longest (tr-slow at
	// 4.2 s), not the one with the longest child or the latest insert.
	dsrv := httptest.NewServer(docstore.Handler(docstore.New()))
	defer dsrv.Close()
	db := docstore.NewClient(dsrv.URL)
	t0 := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	insertSpan(t, db, "tr-mid", "m1", "", "job", "rai", t0, t0.Add(2*time.Second))
	insertSpan(t, db, "tr-slow", "s1", "", "job", "rai", t0, t0.Add(4200*time.Millisecond))
	insertSpan(t, db, "tr-slow", "s2", "s1", "dequeue", "raiworker", t0.Add(time.Second), t0.Add(4*time.Second))
	insertSpan(t, db, "tr-fast", "f1", "", "job", "rai", t0, t0.Add(500*time.Millisecond))
	insertSpan(t, db, "tr-fast", "f2", "f1", "dequeue", "raiworker", t0, t0.Add(9*time.Second))

	var out, errb bytes.Buffer
	code := traceCmd(context.Background(), []string{"-slowest", "-db", dsrv.URL}, &out, &errb)
	if code != 0 {
		t.Fatalf("trace exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"trace tr-slow (2 spans)", "4.2s", "dequeue"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	empty := httptest.NewServer(docstore.Handler(docstore.New()))
	defer empty.Close()
	out.Reset()
	errb.Reset()
	if code := traceCmd(context.Background(), []string{"-slowest", "-db", empty.URL}, &out, &errb); code != 1 {
		t.Fatalf("empty store: exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "no root spans") {
		t.Errorf("stderr does not explain the empty store: %s", errb.String())
	}
}

func TestTraceUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-slowest", "j1"}, {"j1", "j2"}} {
		var out, errb bytes.Buffer
		if code := traceCmd(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("trace %q: exit %d, want 2", args, code)
		}
	}
}

// vanishingStore holds one root span whose trace a -retain sweep
// deletes between the lookup and the span load: FindOne and a Find for
// roots see the root, a Find by trace sees nothing.
type vanishingStore struct{ docstore.Store }

var vanishingRoot = docstore.M{"trace_id": "tr-gone", "span_id": "g1", "parent_id": "", "job_id": "j1", "duration_s": 2.2}

func (vanishingStore) FindOne(context.Context, string, docstore.M) (docstore.M, error) {
	return vanishingRoot, nil
}

func (vanishingStore) Find(_ context.Context, _ string, filter docstore.M, _ docstore.FindOpts) ([]docstore.M, error) {
	if _, byTrace := filter["trace_id"]; byTrace {
		return nil, nil
	}
	return []docstore.M{vanishingRoot}, nil
}

func TestTraceSlowestMissingTrace(t *testing.T) {
	// The slowest root's spans are gone by the time they are loaded:
	// fail honestly, not render an empty timeline.
	dsrv := httptest.NewServer(docstore.Handler(vanishingStore{docstore.New()}))
	defer dsrv.Close()
	var out, errb bytes.Buffer
	if code := traceCmd(context.Background(), []string{"-slowest", "-db", dsrv.URL}, &out, &errb); code != 1 {
		t.Fatalf("trace exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "no persisted spans") {
		t.Errorf("stderr does not explain the missing trace: %s", errb.String())
	}
}

func TestTraceJobSpansGone(t *testing.T) {
	// The job's span is found but its trace is swept before the load:
	// exit 1 with the reason, where indexing the first span panicked.
	dsrv := httptest.NewServer(docstore.Handler(vanishingStore{docstore.New()}))
	defer dsrv.Close()
	var out, errb bytes.Buffer
	if code := traceCmd(context.Background(), []string{"-db", dsrv.URL, "j1"}, &out, &errb); code != 1 {
		t.Fatalf("trace exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "no persisted spans") {
		t.Errorf("stderr does not explain the missing trace: %s", errb.String())
	}
}
