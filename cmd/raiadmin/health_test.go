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

	"rai/internal/slo"
	"rai/internal/telemetry"
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
	if code := health(context.Background(), []string{srv.URL + "/metrics"}, &out, &errb); code != 0 {
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
	if code := health(context.Background(), []string{srv.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "BREACH") {
		t.Errorf("breached deployment not flagged:\n%s", out.String())
	}
}

func TestHealthJSON(t *testing.T) {
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := health(context.Background(), []string{"-json", srv.URL + "/metrics"}, &out, &errb); code != 1 {
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
	if code := health(context.Background(), []string{dead.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1 when nothing is scrapeable", code)
	}
	if !strings.Contains(errb.String(), "no metrics endpoint") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

// TestHealthGivesUpOnSilentEndpoint: an endpoint that accepts the
// connection and never answers costs one scrape deadline, after which
// health exits 1 instead of wedging the cron job that runs it.
func TestHealthGivesUpOnSilentEndpoint(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	start := time.Now()
	var out, errb bytes.Buffer
	if code := health(context.Background(), []string{srv.URL + "/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("health exited %d, want 1 when the only endpoint never answers", code)
	}
	if took := time.Since(start); took > telemetry.ScrapeTimeout+5*time.Second {
		t.Errorf("health took %v against a silent endpoint, want about %v", took, telemetry.ScrapeTimeout)
	}
	if !strings.Contains(errb.String(), "no metrics endpoint") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

func TestHealthUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := health(context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("health with no URLs exited %d, want 2", code)
	}
}

func TestAlertsQuietWhenClean(t *testing.T) {
	srv := metricsServer(t, healthyMetrics)
	var out, errb bytes.Buffer
	if code := alerts(context.Background(), []string{srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("alerts exited %d: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean deployment produced alert output:\n%s", out.String())
	}
}

func TestAlertsListsFiringRules(t *testing.T) {
	srv := metricsServer(t, breachedMetrics)
	var out, errb bytes.Buffer
	if code := alerts(context.Background(), []string{srv.URL + "/metrics"}, &out, &errb); code != 1 {
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
	if code := alerts(context.Background(), []string{"-json", srv.URL + "/metrics"}, &out, &errb); code != 0 {
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
	if code := health(context.Background(), []string{"-slo", path, srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("health exited %d under the lenient config\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "worker-availability") {
		t.Errorf("built-in objectives leaked past a custom config:\n%s", out.String())
	}
}
