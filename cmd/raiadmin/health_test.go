package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/slo"
)

// metricsServer serves a fixed Prometheus exposition body.
func metricsServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

const healthyMetrics = "rai_worker_jobs_total{status=\"succeeded\"} 100\n"

const breachedMetrics = "rai_worker_jobs_total{status=\"succeeded\"} 50\n" +
	"rai_worker_jobs_total{status=\"failed\"} 50\n"

func TestHealthGreen(t *testing.T) {
	srv := metricsServer(t, healthyMetrics)
	var out, errb bytes.Buffer
	if code := health([]string{srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("health exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "worker-availability") || !strings.Contains(out.String(), "ok") {
		t.Errorf("output missing healthy objective line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "BREACH") {
		t.Errorf("healthy deployment reported a breach:\n%s", out.String())
	}
}

func TestHealthRedOnBurn(t *testing.T) {
	// 50% lifetime failure against a 99% target burns 50x budget — far
	// past both default rules' thresholds, so the one-shot evaluation
	// must go red with a nonzero exit.
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := health([]string{srv.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "BREACH") {
		t.Errorf("breached deployment not flagged:\n%s", out.String())
	}
}

func TestHealthJSON(t *testing.T) {
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := health([]string{"-json", srv.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1: %s", code, errb.String())
	}
	var statuses []slo.ObjectiveStatus
	if err := json.Unmarshal(out.Bytes(), &statuses); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	var found bool
	for _, st := range statuses {
		if st.Name == "worker-availability" {
			found = true
			if st.Healthy {
				t.Error("worker-availability reported healthy at 50% failure")
			}
			if st.Bad != 50 || st.Total != 100 {
				t.Errorf("bad/total = %v/%v, want 50/100", st.Bad, st.Total)
			}
		}
	}
	if !found {
		t.Fatalf("worker-availability missing from %s", out.String())
	}
}

func TestHealthAllEndpointsDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var out, errb bytes.Buffer
	if code := health([]string{dead.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1 when nothing is scrapeable", code)
	}
	if !strings.Contains(errb.String(), "no metrics endpoint") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

func TestHealthUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := health(nil, &out, &errb); code != 2 {
		t.Fatalf("health with no URLs exited %d, want 2", code)
	}
}

func TestAlertsQuietWhenClean(t *testing.T) {
	srv := metricsServer(t, healthyMetrics)
	var out, errb bytes.Buffer
	if code := alerts([]string{srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("alerts exited %d: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean deployment produced alert output:\n%s", out.String())
	}
}

func TestAlertsListsFiringRules(t *testing.T) {
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := alerts([]string{srv.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("alerts exited %d, want 1\nstdout: %s", code, out.String())
	}
	for _, want := range []string{"worker-availability", "page", "ticket"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("alert lines missing %q:\n%s", want, out.String())
		}
	}
}

func TestAlertsJSONEmptyArrayWhenClean(t *testing.T) {
	srv := metricsServer(t, healthyMetrics)
	var out, errb bytes.Buffer
	if code := alerts([]string{"-json", srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("alerts exited %d: %s", code, errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

func TestHealthCustomConfig(t *testing.T) {
	// A custom -slo file replaces the built-ins: a 50%-failure scrape is
	// fine under a 0.4 target.
	cfg := `{"objectives":[{"name":"lenient","target":0.4,` +
		`"total":{"name":"rai_worker_jobs_total"},` +
		`"bad":{"name":"rai_worker_jobs_total","labels":{"status":"failed"}}}]}`
	dir := t.TempDir()
	path := dir + "/slo.json"
	if err := os.WriteFile(path, []byte(cfg), 0o600); err != nil {
		t.Fatal(err)
	}
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := health([]string{"-slo", path, srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("health exited %d under the lenient config\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "worker-availability") {
		t.Errorf("built-in objectives leaked past a custom config:\n%s", out.String())
	}
}

// insertSpan persists one span document the way the collector does.
func insertSpan(t *testing.T, db *docstore.Client, traceID, spanID, parentID, name, service string, start, end time.Time) {
	t.Helper()
	if _, err := db.Insert(context.Background(), core.CollTraces, docstore.M{
		"trace_id": traceID, "span_id": spanID, "parent_id": parentID,
		"name": name, "service": service,
		"start": start.UTC().Format(time.RFC3339Nano), "end": end.UTC().Format(time.RFC3339Nano),
		"start_s": float64(start.Unix()),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceExemplarSlowest(t *testing.T) {
	// The metrics scrape links buckets to traces; -exemplar slowest must
	// pick the largest value (tr-slow at 4.2s, not tr-fast at 0.5s) and
	// render that trace from the docstore.
	exposition := "# TYPE rai_worker_job_seconds histogram\n" +
		"rai_worker_job_seconds_bucket{le=\"1\"} 1 # {trace_id=\"tr-fast\"} 0.5\n" +
		"rai_worker_job_seconds_bucket{le=\"+Inf\"} 2 # {trace_id=\"tr-slow\"} 4.2\n" +
		"rai_worker_job_seconds_sum 4.7\n" +
		"rai_worker_job_seconds_count 2\n"
	msrv := metricsServer(t, exposition)
	dsrv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer dsrv.Close()
	db := docstore.NewClient(dsrv.URL)
	t0 := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	insertSpan(t, db, "tr-slow", "s1", "", "job.submit", "rai", t0, t0.Add(4200*time.Millisecond))
	insertSpan(t, db, "tr-slow", "s2", "s1", "job.execute", "raiworker", t0.Add(time.Second), t0.Add(4*time.Second))
	insertSpan(t, db, "tr-fast", "f1", "", "job.submit", "rai", t0, t0.Add(500*time.Millisecond))

	var out, errb bytes.Buffer
	code := traceCmd(context.Background(), []string{"-exemplar", "slowest", "-metrics", msrv.URL + "/metrics", "-db", dsrv.URL}, &out, &errb)
	if code != 0 {
		t.Fatalf("trace exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"tr-slow", "4.2", "job.execute"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "tr-fast") {
		t.Errorf("picked the wrong exemplar:\n%s", out.String())
	}
}

func TestTraceExemplarMetricFilter(t *testing.T) {
	// -metric restricts the search: the queue histogram's exemplar wins
	// even though the job histogram holds a larger value.
	exposition := "rai_worker_job_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"tr-job\"} 9.9\n" +
		"rai_queue_delay_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"tr-queue\"} 0.2\n"
	msrv := metricsServer(t, exposition)
	dsrv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer dsrv.Close()
	db := docstore.NewClient(dsrv.URL)
	t0 := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	insertSpan(t, db, "tr-queue", "q1", "", "queue.wait", "raiworker", t0, t0.Add(200*time.Millisecond))

	var out, errb bytes.Buffer
	code := traceCmd(context.Background(), []string{"-exemplar", "slowest", "-metric", "rai_queue_delay_seconds",
		"-metrics", msrv.URL + "/metrics", "-db", dsrv.URL}, &out, &errb)
	if code != 0 {
		t.Fatalf("trace exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "tr-queue") {
		t.Errorf("filter did not select the queue exemplar:\n%s", out.String())
	}
}

func TestTraceExemplarMissingTrace(t *testing.T) {
	// An exemplar whose trace was sampled out of the docstore must fail
	// honestly, not render an empty timeline.
	exposition := "rai_worker_job_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"tr-gone\"} 2.2\n"
	msrv := metricsServer(t, exposition)
	dsrv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer dsrv.Close()

	var out, errb bytes.Buffer
	code := traceCmd(context.Background(), []string{"-exemplar", "slowest", "-metrics", msrv.URL + "/metrics", "-db", dsrv.URL}, &out, &errb)
	if code != 1 {
		t.Fatalf("trace exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "no persisted spans") {
		t.Errorf("stderr does not explain the missing trace: %s", errb.String())
	}
}
